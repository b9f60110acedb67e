package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"distknn"
	"distknn/internal/points"
	"distknn/internal/wire"
	"distknn/internal/xrand"
)

// One run builds at least minSetups full deployments, and keeps building
// until it has spent setupBudget on them or built maxSetups, to take the
// median set-up time; the last one serves the timed window.
const (
	minSetups   = 9
	maxSetups   = 51
	setupBudget = time.Second
)

// bench runs one workload for point type P. The serving stack sees only
// the shards the provider generates and the query points; everything else
// here (the merged data set, the oracle answers, the shard ownership of
// every point ID) is the benchmark's own, built off the clock.
type bench[P any] struct {
	w    *workload
	seed uint64

	pt      distknn.PointType[P]
	metric  points.Metric[P]
	codec   wire.PointCodec[P]
	shards  distknn.ShardProvider[P]
	prune   bool // serve with the point type's Pruner
	index   func(*points.Set[P]) (func(P, int) []points.Item, error)
	queries func(*rand.Rand, []distknn.Shard[P]) []P
	inproc  func([]P, []float64, distknn.Options) (*distknn.Cluster[P], error)

	parts []distknn.Shard[P]
	data  *points.Set[P]  // the global data set under the provider's IDs
	owner map[uint64]int  // point ID -> shard holding it
	pool  []P             // the query pool
	want  [][]points.Item // oracle answer per pool entry
}

// prepare builds the data set, the query pool and the oracle answers.
func (b *bench[P]) prepare() error {
	k := b.w.k
	b.data = &points.Set[P]{Metric: b.metric}
	b.owner = make(map[uint64]int)
	for id := 0; id < k; id++ {
		sh, err := b.shards(id, k)
		if err != nil {
			return fmt.Errorf("shard %d: %w", id, err)
		}
		b.parts = append(b.parts, sh)
		for j, p := range sh.Points {
			pid := sh.FirstID + uint64(j)
			if sh.IDs != nil {
				pid = sh.IDs[j]
			}
			label := 0.0
			if sh.Labels != nil {
				label = sh.Labels[j]
			}
			b.data.Pts = append(b.data.Pts, p)
			b.data.IDs = append(b.data.IDs, pid)
			b.data.Labels = append(b.data.Labels, label)
			b.owner[pid] = id
		}
	}
	b.pool = b.queries(xrand.NewStream(b.seed, queryStream), b.parts)
	b.want = make([][]points.Item, len(b.pool))
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := wk; i < len(b.pool); i += workers {
				b.want[i] = bruteKNN(b.data, b.pool[i], b.w.l)
			}
		}()
	}
	wg.Wait()
	return nil
}

// bruteKNN is the oracle: the l smallest (distance, ID) keys over every
// point, found by a plain scan with insertion into a sorted prefix.
func bruteKNN[P any](data *points.Set[P], q P, l int) []points.Item {
	best := make([]points.Item, 0, l+1)
	for i := range data.Pts {
		it := data.Item(i, q)
		if len(best) == l && !it.Key.Less(best[l-1].Key) {
			continue
		}
		j := sort.Search(len(best), func(j int) bool { return it.Key.Less(best[j].Key) })
		best = append(best, points.Item{})
		copy(best[j+1:], best[j:])
		best[j] = it
		if len(best) > l {
			best = best[:l]
		}
	}
	return best
}

// sameItems reports whether got equals want bit for bit: keys, IDs and
// label bits, in order.
func sameItems(got, want []points.Item) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Key != want[i].Key || math.Float64bits(got[i].Label) != math.Float64bits(want[i].Label) {
			return false
		}
	}
	return true
}

// frontendOptions is the workload's scheduler configuration: the defaults
// (window 8, no server batching) plus the pruner where the workload asks.
func (b *bench[P]) frontendOptions() distknn.FrontendOptions {
	var o distknn.FrontendOptions
	if b.prune {
		o.Pruner = b.pt.Pruner()
	}
	return o
}

// setupAttempts is how many times a run tries to bring up one deployment.
// Set-up of a loopback deployment occasionally fails (about one k=8
// deployment in 300 on a 2-vCPU host): a node that has just seated its
// last mesh link can write its first set-up round frame on that link
// before the handshake ack, and the dialing peer then reads the stream out
// of step. A failed attempt is retried, reported on standard error and in
// the run's metadata under setup_failures, and never timed into setup_s.
const setupAttempts = 3

// retrySetup runs start until it succeeds, at most setupAttempts times,
// and returns what it built and how long the successful attempt took.
func retrySetup[T any](res *result, start func() (T, error)) (T, time.Duration, error) {
	var errs []error
	for range setupAttempts {
		t0 := time.Now()
		v, err := start()
		if err == nil {
			return v, time.Since(t0), nil
		}
		fmt.Fprintf(os.Stderr, "knnperf: %s: set-up failed: %v\n", res.w.name, err)
		res.setupFailures = append(res.setupFailures, err.Error())
		errs = append(errs, err)
	}
	var zero T
	return zero, 0, errors.Join(errs...)
}

// deployment is one running loopback cluster and its client connection.
type deployment[P any] struct {
	rc    *distknn.RemoteCluster[P]
	close func() error
}

// deploy starts the serving cluster the way a user of the library does:
// ServeTypedLocalOptions, then one multiplexed client connection.
func (b *bench[P]) deploy() (*deployment[P], error) {
	srv, err := distknn.ServeTypedLocalOptions(b.pt, b.w.k, b.seed, b.shards, distknn.NodeOptions{}, b.frontendOptions())
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	rc, err := distknn.DialTypedCluster(b.pt, srv.Addr())
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("dial: %w", err)
	}
	return &deployment[P]{rc: rc, close: func() error {
		rc.Close()
		return srv.Close()
	}}, nil
}

// answer is one answered point, kept for the oracle check.
type answer struct {
	query int
	items []points.Item
}

// window is the outcome of one closed-loop measurement.
type window struct {
	calls    int             // calls attempted
	errs     int             // calls that returned an error
	points   int             // points answered
	rounds   int64           // Σ QueryStats.Rounds
	lat      []time.Duration // per successful call
	ends     []time.Duration // per successful call: completion, from the window's start
	answers  []answer
	elapsed  time.Duration
	firstErr error
}

// queryFunc issues one call for the pool entries qs and returns one
// answer per entry.
type queryFunc func(qs []int) ([][]points.Item, *distknn.QueryStats, error)

// knnAPI is the query surface RemoteCluster and the in-process Cluster
// share.
type knnAPI[P any] interface {
	KNN(q P, l int) ([]points.Item, *distknn.QueryStats, error)
	KNNBatch(qs []P, l int) ([]distknn.BatchResult, *distknn.QueryStats, error)
}

// caller issues calls of the workload's shape: KNN for one point, KNNBatch
// for more.
func (b *bench[P]) caller(api knnAPI[P]) queryFunc {
	return func(qs []int) ([][]points.Item, *distknn.QueryStats, error) {
		if len(qs) == 1 {
			items, st, err := api.KNN(b.pool[qs[0]], b.w.l)
			return [][]points.Item{items}, st, err
		}
		pts := make([]P, len(qs))
		for i, qi := range qs {
			pts[i] = b.pool[qi]
		}
		res, st, err := api.KNNBatch(pts, b.w.l)
		if err != nil {
			return nil, nil, err
		}
		out := make([][]points.Item, len(res))
		for i, r := range res {
			out[i] = r.Neighbors
		}
		return out, st, nil
	}
}

// drive runs callers closed-loop callers for d: each issues its next call
// as soon as the previous one returns, and none starts a call after d.
// Caller c takes the pool slots c, c+callers, c+2·callers, … (in batches of
// the workload's size), so the stream is a function of the seed alone.
func (b *bench[P]) drive(call queryFunc, callers int, d time.Duration) window {
	parts := make([]window, callers)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &parts[c]
			qs := make([]int, b.w.batch)
			for n := 0; time.Now().Before(deadline); n++ {
				base := (c + n*callers) * b.w.batch
				for i := range qs {
					qs[i] = (base + i) % len(b.pool)
				}
				t0 := time.Now()
				got, st, err := call(qs)
				lat := time.Since(t0)
				w.calls++
				if err != nil {
					w.errs++
					if w.firstErr == nil {
						w.firstErr = err
					}
					continue
				}
				w.lat = append(w.lat, lat)
				w.ends = append(w.ends, time.Since(start))
				w.points += len(got)
				w.rounds += int64(st.Rounds)
				for i, items := range got {
					w.answers = append(w.answers, answer{query: qs[i], items: items})
				}
			}
		}()
	}
	wg.Wait()
	var out window
	out.elapsed = time.Since(start)
	for _, p := range parts {
		out.calls += p.calls
		out.errs += p.errs
		out.points += p.points
		out.rounds += p.rounds
		out.lat = append(out.lat, p.lat...)
		out.ends = append(out.ends, p.ends...)
		out.answers = append(out.answers, p.answers...)
		if out.firstErr == nil {
			out.firstErr = p.firstErr
		}
	}
	return out
}

// sliceLen is roughly how much of a window one throughput sample spans.
// The end-to-end run reports the median sample, so a transient stall of a
// shared host moves one sample, not the figure.
const sliceLen = time.Second

// byCompletion returns the indices of the window's successful calls in
// completion order, split into n runs of equal length (the remainder
// dropped).
func (w window) byCompletion(n int) [][]int {
	idx := make([]int, len(w.ends))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return w.ends[idx[i]] < w.ends[idx[j]] })
	per := len(idx) / n
	runs := make([][]int, n)
	for r := range runs {
		runs[r] = idx[r*per : (r+1)*per]
	}
	return runs
}

// slices is how many runs of about sliceLen each the window holds.
func (w window) slices() int {
	return max(1, min(len(w.ends), int(w.elapsed/sliceLen)))
}

// rates returns the throughput, in points per second, of each of about
// one run of consecutive completions per sliceLen.
func (w window) rates(perCall int) []float64 {
	var out []float64
	var prev time.Duration
	for _, run := range w.byCompletion(w.slices()) {
		last := w.ends[run[len(run)-1]]
		out = append(out, float64(len(run)*perCall)/(last-prev).Seconds())
		prev = last
	}
	return out
}

// tailBeyond is how many calls a tail percentile must leave beyond it.
const tailBeyond = 10

// tails returns percentile p of the call latencies of each run of
// consecutive completions, with as many runs (at most one per sliceLen)
// as still leave tailBeyond calls beyond p in each, and the calls per run.
func (w window) tails(p float64) ([]float64, int) {
	n := max(1, min(w.slices(), int(float64(len(w.lat))*(1-p)/tailBeyond)))
	var out []float64
	var per int
	for _, run := range w.byCompletion(n) {
		lat := make([]time.Duration, len(run))
		for i, c := range run {
			lat[i] = w.lat[c]
		}
		out = append(out, ms(percentile(lat, p)))
		per = len(run)
	}
	return out, per
}

// mismatches counts answers that differ from the oracle.
func (b *bench[P]) mismatches(answers []answer) int {
	bad := 0
	for _, a := range answers {
		if !sameItems(a.items, b.want[a.query]) {
			bad++
		}
	}
	return bad
}

// warmupFor is how long callers run untimed before a window of length d,
// so pools, connections and the heap settle first.
func warmupFor(d time.Duration) time.Duration {
	return min(time.Second, d/5)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// endToEnd is the untraced run: set-up time, then one timed closed-loop
// window measured from outside the program, then the oracle check.
func (b *bench[P]) endToEnd(d time.Duration) (*result, error) {
	if err := b.prepare(); err != nil {
		return nil, err
	}
	res := newResult(b.w, b.seed, d, false)
	var setups []float64
	var dep *deployment[P]
	for spent := time.Duration(0); len(setups) < minSetups || (spent < setupBudget && len(setups) < maxSetups); {
		if dep != nil {
			if err := dep.close(); err != nil {
				return nil, fmt.Errorf("close: %w", err)
			}
		}
		var took time.Duration
		var err error
		if dep, took, err = retrySetup(res, b.deploy); err != nil {
			return nil, err
		}
		spent += took
		setups = append(setups, took.Seconds())
	}
	call := b.caller(dep.rc)
	b.drive(call, b.w.callers, warmupFor(d))

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, err0 := cpuTime()
	win := b.drive(call, b.w.callers, d)
	cpu1, err1 := cpuTime()
	runtime.ReadMemStats(&m1)
	if err := errors.Join(err0, err1, dep.close()); err != nil {
		return nil, err
	}

	res.attempted = win.calls
	res.failed = win.errs + b.mismatches(win.answers)
	res.firstErr = win.firstErr
	if win.points == 0 {
		return nil, errors.Join(errors.New("no call succeeded"), win.firstErr)
	}
	pts := float64(win.points)
	rates := win.rates(b.w.batch)
	tails, perTail := win.tails(b.w.tail)
	res.add("setup_s", median(setups), "s", fmt.Sprintf("median of %d deployments", len(setups)))
	res.add("qps", median(rates), "1/s", fmt.Sprintf("median of %d runs of %d points in %.3fs",
		len(rates), win.points/len(rates), win.elapsed.Seconds()))
	res.add("latency_p50_ms", ms(percentile(win.lat, 0.5)), "ms", fmt.Sprintf("%d calls", len(win.lat)))
	res.add("latency_tail_ms", median(tails), "ms", fmt.Sprintf("median p%g of %d runs of %d calls, %d beyond in each",
		b.w.tail*100, len(tails), perTail, perTail-1-rank(perTail, b.w.tail)))
	res.add("allocs_per_query", float64(m1.Mallocs-m0.Mallocs)/pts, "count", fmt.Sprintf("%d points", win.points))
	res.add("alloc_bytes_per_query", float64(m1.TotalAlloc-m0.TotalAlloc)/pts, "B", fmt.Sprintf("%d points", win.points))
	res.add("cpu_ms_per_query", ms(cpu1-cpu0)/pts, "ms", fmt.Sprintf("%d points", win.points))
	return res, nil
}

// rank is the nearest-rank index of percentile p in n sorted samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n))) - 1
	return max(0, min(r, n-1))
}

// percentile returns percentile p of ds by nearest rank.
func percentile(ds []time.Duration, p float64) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[rank(len(s), p)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
