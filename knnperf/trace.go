package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"distknn"
	"distknn/internal/obs"
	"distknn/internal/points"
)

// Shares of the traced run's --seconds: an untraced window for the
// tracing-overhead baseline, the traced window the per-layer numbers come
// from, and the serial in-process core run.
const (
	untracedShare = 0.3
	tracedShare   = 0.5
	inprocShare   = 0.2
)

// microPasses is how many passes each benchmark-side layer timing makes
// over the query pool; the median pass is reported.
const microPasses = 5

// observed is a loopback deployment assembled from the public serving
// pieces — a Frontend plus k ServeTypedNode goroutines, the same
// composition ServeTypedLocalOptions makes — so the frontend, every node
// and the client each record into a Metrics registry of their own, and the
// frontend keeps one trace span per epoch.
type observed[P any] struct {
	fe     *distknn.Frontend
	rc     *distknn.RemoteCluster[P]
	tracer *distknn.Tracer
	feReg  *distknn.Metrics
	cliReg *distknn.Metrics
	nodes  []*distknn.Metrics

	served   chan struct{} // closed once Serve has returned serveErr
	serveErr error
	nodeErrs []error
	wg       sync.WaitGroup
}

func (b *bench[P]) deployObserved(depth int) (*observed[P], error) {
	o := &observed[P]{
		tracer:   distknn.NewTracer(depth),
		feReg:    distknn.NewMetrics(),
		cliReg:   distknn.NewMetrics(),
		served:   make(chan struct{}),
		nodeErrs: make([]error, b.w.k),
	}
	fopts := b.frontendOptions()
	fopts.Metrics = o.feReg
	fopts.Trace = o.tracer
	fe, err := distknn.NewFrontendOptions("127.0.0.1:0", b.w.k, b.seed, fopts)
	if err != nil {
		return nil, fmt.Errorf("frontend: %w", err)
	}
	o.fe = fe
	go func() {
		o.serveErr = fe.Serve()
		close(o.served)
	}()
	for i := 0; i < b.w.k; i++ {
		reg := distknn.NewMetrics()
		o.nodes = append(o.nodes, reg)
		o.wg.Add(1)
		go func() {
			defer o.wg.Done()
			o.nodeErrs[i] = distknn.ServeTypedNode(b.pt, fe.Addr(), "127.0.0.1:0", b.shards, distknn.NodeOptions{Metrics: reg})
		}()
	}
	// The leader is published together with the session's seats, once
	// every node has reported ready; Serve returns early if set-up fails.
	for deadline := time.Now().Add(time.Minute); fe.Leader() < 0; {
		select {
		case <-o.served:
			return nil, fmt.Errorf("set-up: %w", o.close())
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			return nil, errors.Join(errors.New("observed deployment not ready within a minute"), o.close())
		}
	}
	o.rc, err = distknn.DialTypedClusterOptions(b.pt, fe.Addr(), distknn.ClientOptions{Metrics: o.cliReg})
	if err != nil {
		o.close()
		return nil, fmt.Errorf("dial: %w", err)
	}
	return o, nil
}

func (o *observed[P]) close() error {
	if o.rc != nil {
		o.rc.Close()
	}
	o.fe.Close()
	<-o.served
	err := o.serveErr
	o.wg.Wait()
	for _, nerr := range o.nodeErrs {
		if nerr != nil && !errors.Is(nerr, distknn.ErrSessionLost) {
			err = errors.Join(err, nerr)
		}
	}
	return err
}

// traced is the traced run: the per-layer metrics, read from outside the
// program — the frontend's spans and the registries' counters around one
// closed-loop window, plus benchmark-side timing of direct calls into the
// wire, points/kdtree and in-process core layers. None of its numbers feed
// the end-to-end metrics.
func (b *bench[P]) traced(d time.Duration) (*result, error) {
	if err := b.prepare(); err != nil {
		return nil, err
	}
	res := newResult(b.w, b.seed, d, true)
	account := func(win window, bad int) {
		res.attempted += win.calls
		res.failed += win.errs + bad
		if res.firstErr == nil {
			res.firstErr = win.firstErr
		}
	}

	// Untraced baseline for trace.overhead_share.
	dU := time.Duration(float64(d) * untracedShare)
	dep, _, err := retrySetup(res, b.deploy)
	if err != nil {
		return nil, err
	}
	call := b.caller(dep.rc)
	b.drive(call, b.w.callers, warmupFor(dU))
	runtime.GC()
	base := b.drive(call, b.w.callers, dU)
	if err := dep.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	account(base, b.mismatches(base.answers))
	if base.points == 0 {
		return nil, errors.Join(errors.New("no call succeeded"), base.firstErr)
	}
	baseQPS := float64(base.points) / base.elapsed.Seconds()

	// Traced window. The span ring holds every epoch of the warm-up and
	// the window (at most two dispatch waves per call, with margin) and is
	// read once, after the window.
	dT := time.Duration(float64(d) * tracedShare)
	warm := warmupFor(dT)
	callsPerSec := baseQPS / float64(b.w.batch)
	depth := int(2.5*callsPerSec*(warm+dT).Seconds()) + 1024
	od, _, err := retrySetup(res, func() (*observed[P], error) { return b.deployObserved(depth) })
	if err != nil {
		return nil, err
	}
	call = b.caller(od.rc)
	b.drive(call, b.w.callers, warm)
	runtime.GC()
	fe0, node0, cli0 := od.feReg.Snapshot(), nodeSnapshots(od.nodes), od.cliReg.Snapshot()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	winStart := time.Now()
	win := b.drive(call, b.w.callers, dT)
	winEnd := time.Now()
	runtime.ReadMemStats(&m1)
	fe1, node1, cli1 := od.feReg.Snapshot(), nodeSnapshots(od.nodes), od.cliReg.Snapshot()
	spans := od.tracer.Recent()
	if err := od.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	account(win, b.mismatches(win.answers))
	if win.points == 0 {
		return nil, errors.Join(errors.New("no traced call succeeded"), win.firstErr)
	}

	var inWindow []spanTimes
	for _, sp := range spans {
		if sp.Done && !sp.Start.Before(winStart) && sp.Start.Before(winEnd) {
			inWindow = append(inWindow, spanOf(sp))
		}
	}
	feC := func(name string) int64 { return fe1.Counters[name] - fe0.Counters[name] }
	epochs := feC("frontend_epochs_admitted_total")
	if int64(len(inWindow)) != epochs {
		return nil, fmt.Errorf("trace ring kept %d of the window's %d epochs (depth %d)", len(inWindow), epochs, depth)
	}
	pts := float64(win.points)
	meshRounds := feC("frontend_mesh_rounds_total")
	feLat := histDiff(fe0.Histograms["frontend_query_latency_ns"], fe1.Histograms["frontend_query_latency_ns"])
	occ := histDiff(fe0.Histograms["frontend_window_occupancy"], fe1.Histograms["frontend_window_occupancy"])
	var nodeEpochs int64
	for i := range node0 {
		nodeEpochs += node1[i].Counters["node_epochs_served_total"] - node0[i].Counters["node_epochs_served_total"]
	}
	var callLat time.Duration
	for _, l := range win.lat {
		callLat += l
	}
	calls := float64(len(win.lat))
	st := summarize(inWindow)
	spanNote := fmt.Sprintf("%d spans", len(inWindow))

	res.add("client.overhead_us", us(callLat)/calls-feLat.mean()/1e3, "us",
		fmt.Sprintf("%d calls, %d frontend latencies", len(win.lat), feLat.count))
	res.add("client.retries_per_kquery", 1000*float64(cli1.Counters["client_retries_total"]-cli0.Counters["client_retries_total"])/pts,
		"count", fmt.Sprintf("%d points", win.points))
	res.add("frontend.dispatch_us", st.dispatch/1e3, "us", spanNote)
	res.add("frontend.collate_us", st.collate/1e3, "us", spanNote)
	res.add("frontend.reply_us", st.reply/1e3, "us", spanNote)
	res.add("frontend.seat_spread_us", st.spread/1e3, "us", spanNote)
	res.add("frontend.window_occupancy_mean", occ.mean(), "count", fmt.Sprintf("%d admissions", occ.count))
	res.add("frontend.epochs_per_query", float64(epochs)/pts, "count", fmt.Sprintf("%d epochs", epochs))
	roundUS := 0.0
	if meshRounds > 0 {
		roundUS = st.firstSeatMeshNS / 1e3 / float64(meshRounds)
	}
	res.add("mesh.round_us", roundUS, "us", fmt.Sprintf("%d mesh spans, %d rounds", st.meshSpans, meshRounds))
	res.add("mesh.rounds_per_query", float64(meshRounds)/pts, "count", fmt.Sprintf("%d points", win.points))
	res.add("mesh.messages_per_query", float64(feC("frontend_mesh_messages_total"))/pts, "count", fmt.Sprintf("%d points", win.points))
	res.add("mesh.bytes_per_query", float64(feC("frontend_mesh_bytes_total"))/pts, "B", fmt.Sprintf("%d points", win.points))
	res.add("node.mesh_epochs_per_query", float64(nodeEpochs)/float64(b.w.k)/pts, "count",
		fmt.Sprintf("%d node epochs over %d nodes", nodeEpochs, b.w.k))
	contacts := feC("frontend_prune_contacts_total")
	useful := 0.0
	if contacts > 0 {
		useful = float64(b.usefulContacts(win.answers)) / float64(contacts)
	}
	res.add("metricindex.contacts_per_query", float64(contacts)/pts, "count", fmt.Sprintf("%d contacts", contacts))
	res.add("metricindex.useful_contact_share", useful, "ratio", fmt.Sprintf("%d contacts", contacts))
	res.add("runtime.gc_per_kquery", 1000*float64(m1.NumGC-m0.NumGC)/pts, "count", fmt.Sprintf("%d points", win.points))
	tracedQPS := pts / win.elapsed.Seconds()
	res.add("trace.overhead_share", 1-tracedQPS/baseQPS, "ratio",
		fmt.Sprintf("%d untraced, %d traced points", base.points, win.points))

	// In-process core: the same query stream, serially, through a
	// distknn.Cluster over the merged data set.
	core, bad, err := b.inprocCore(time.Duration(float64(d) * inprocShare))
	if err != nil {
		return nil, err
	}
	account(core, bad)
	if core.points == 0 {
		return nil, errors.Join(errors.New("no in-process call succeeded"), core.firstErr)
	}
	res.add("core.inproc_us_per_query", us(core.elapsed)/float64(core.points), "us",
		fmt.Sprintf("%d points, one caller", core.points))
	res.add("core.inproc_rounds_per_query", float64(core.rounds)/float64(core.points), "count",
		fmt.Sprintf("%d points", core.points))

	if err := b.layerTimings(res); err != nil {
		return nil, err
	}
	return res, nil
}

func nodeSnapshots(regs []*distknn.Metrics) []obs.Snapshot {
	out := make([]obs.Snapshot, len(regs))
	for i, r := range regs {
		out[i] = r.Snapshot()
	}
	return out
}

// histGrowth is a histogram's growth between two snapshots.
type histGrowth struct{ sum, count int64 }

func histDiff(before, after obs.HistogramSnapshot) histGrowth {
	return histGrowth{sum: after.Sum - before.Sum, count: after.Count - before.Count}
}

func (h histGrowth) mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// spanTimes is one epoch span's stage offsets, in nanoseconds from
// admission.
type spanTimes struct {
	direct                     bool
	dispatch, collate, reply   int64
	firstSeat, lastSeat, seats int64
}

func spanOf(sp obs.SpanSnapshot) spanTimes {
	t := spanTimes{direct: sp.Direct, dispatch: sp.DispatchNS, collate: sp.CollateNS, reply: sp.ReplyNS}
	for i, s := range sp.Seats {
		if i == 0 || s.OffsetNS < t.firstSeat {
			t.firstSeat = s.OffsetNS
		}
		t.lastSeat = max(t.lastSeat, s.OffsetNS)
	}
	t.seats = int64(len(sp.Seats))
	return t
}

// spanStats are per-span means of the frontend stages, plus the summed
// dispatch-to-first-result time of the mesh (non-direct) epochs.
type spanStats struct {
	dispatch, collate, reply, spread float64
	firstSeatMeshNS                  float64
	meshSpans                        int
}

func summarize(spans []spanTimes) spanStats {
	var st spanStats
	if len(spans) == 0 {
		return st
	}
	var seated int
	for _, s := range spans {
		st.dispatch += float64(s.dispatch)
		st.collate += float64(s.collate - s.dispatch)
		st.reply += float64(s.reply - s.collate)
		if s.seats > 0 {
			seated++
			st.spread += float64(s.lastSeat - s.firstSeat)
			if !s.direct {
				st.meshSpans++
				st.firstSeatMeshNS += float64(s.firstSeat - s.dispatch)
			}
		}
	}
	n := float64(len(spans))
	st.dispatch /= n
	st.collate /= n
	st.reply /= n
	if seated > 0 {
		st.spread /= float64(seated)
	}
	return st
}

// usefulContacts counts, over the answered points, the shards holding at
// least one of the point's ℓ answers — the contacts a pruned dispatch could
// not have skipped.
func (b *bench[P]) usefulContacts(answers []answer) int64 {
	var n int64
	held := make([]bool, b.w.k)
	for _, a := range answers {
		clear(held)
		for _, it := range a.items {
			if id := b.owner[it.Key.ID]; !held[id] {
				held[id] = true
				n++
			}
		}
	}
	return n
}

// inprocCore runs the query stream serially through an in-process
// distknn.Cluster over the merged data set for d, and returns the window
// and how many answers differ from the oracle. The in-process cluster
// numbers points by its own partition, so its answers are checked by
// distance only.
func (b *bench[P]) inprocCore(d time.Duration) (win window, bad int, err error) {
	c, err := b.inproc(b.data.Pts, b.data.Labels, distknn.Options{Machines: b.w.k, Seed: b.seed})
	if err != nil {
		return window{}, 0, fmt.Errorf("in-process cluster: %w", err)
	}
	defer c.Close()
	win = b.drive(b.caller(c), 1, d)
	for _, a := range win.answers {
		if !sameDists(a.items, b.want[a.query]) {
			bad++
		}
	}
	return win, bad, nil
}

func sameDists(got, want []points.Item) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Key.Dist != want[i].Key.Dist {
			return false
		}
	}
	return true
}
