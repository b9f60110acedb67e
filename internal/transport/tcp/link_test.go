package tcp

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distknn/internal/kmachine"
	"distknn/internal/wire"
	"distknn/internal/xrand"
)

// loopbackMesh builds a k-node mesh over loopback TCP without a
// coordinator and returns the nodes, indexed by machine id. The nodes share
// nm. t.Cleanup closes every link.
func loopbackMesh(tb testing.TB, k int, seed uint64, nm *nodeMetrics) []*Node {
	tb.Helper()
	lns := make([]net.Listener, k)
	addrs := make([]string, k)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		defer ln.Close()
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	nodes := make([]*Node, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conns, err := buildMesh(lns[i], i, k, addrs)
			if err != nil {
				errs[i] = err
				return
			}
			nodes[i] = newNode(i, k, seed, conns, nm)
		}()
	}
	wg.Wait()
	tb.Cleanup(func() {
		for _, n := range nodes {
			if n != nil {
				n.closePeers()
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			tb.Fatal(err)
		}
	}
	return nodes
}

// beginWave begins epochs first..first+w-1 on every node, in ordinal order
// as the serve loop does, and returns runs[node][i].
func beginWave(tb testing.TB, nodes []*Node, first uint64, w int) [][]*epochRun {
	tb.Helper()
	runs := make([][]*epochRun, len(nodes))
	for i, n := range nodes {
		for e := first; e < first+uint64(w); e++ {
			er, err := n.beginEpoch(e, xrand.DeriveSeed(n.seed, e))
			if err != nil {
				tb.Fatal(err)
			}
			runs[i] = append(runs[i], er)
		}
	}
	return runs
}

// waitGoroutines polls until the goroutine count is back to at most base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, baseline %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLinkFailureFailsInFlightEpochs breaks the mesh link of a two-node
// mesh while several epochs are mid-run. Every epoch on either end must fail
// promptly with a transport error naming the other end — nothing hangs.
// (With a third node, an endpoint may first see that node's abort echo.)
func TestLinkFailureFailsInFlightEpochs(t *testing.T) {
	const k, inFlight = 2, 4
	nodes := loopbackMesh(t, k, 7, nil)
	runs := beginWave(t, nodes, 1, inFlight)

	var rounds atomic.Int64
	prog := func(m kmachine.Env) error {
		for {
			m.Broadcast([]byte{byte(m.Round())})
			m.EndRound()
			m.Recv()
			rounds.Add(1)
		}
	}
	errs := make([][]error, k)
	var wg sync.WaitGroup
	for i := range runs {
		errs[i] = make([]error, inFlight)
		for e, er := range runs[i] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i][e] = er.execute(prog)
			}()
		}
	}
	for rounds.Load() < k*inFlight*5 {
		time.Sleep(time.Millisecond)
	}
	nodes[0].peerSnapshot()[1].conn.Close()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("epochs still running 5s after the link broke")
	}
	for e := 0; e < inFlight; e++ {
		for i, want := range []int{1, 0} {
			err := errs[i][e]
			if !IsTransportError(err) || LostPeer(err) != want {
				t.Errorf("node %d epoch %d: got %v (lost peer %d), want a transport error naming %d", i, e+1, err, LostPeer(err), want)
			}
		}
	}
}

// TestServingCloseLeaksNoGoroutines pins the link-writer lifecycle on the
// serving path: after Close every reader and writer goroutine is gone.
func TestServingCloseLeaksNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	lc, err := ServeLocal(4, 17, func() Handler { return &echoHandler{} })
	if err != nil {
		t.Fatal(err)
	}
	client, err := DialFrontend(lc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := client.Do(scalarQuery(wire.OpKNN, 1, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	client.Close()
	if err := lc.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)
}

// TestRunLocalLeaksNoGoroutines is the one-shot counterpart.
func TestRunLocalLeaksNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	_, errs, err := RunLocal(4, 18, func(m kmachine.Env) error {
		for r := 0; r < 5; r++ {
			m.Broadcast([]byte{byte(r)})
			m.EndRound()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("node %d: %v", i, e)
		}
	}
	waitGoroutines(t, base)
}

// TestHaltFramesFlushedBeforeClose has every node but 0 send its last
// message and halt in the same round; a one-shot node closes its links
// right after halting, so node 0 sees those messages only if each link's
// queue is flushed before its socket closes.
func TestHaltFramesFlushedBeforeClose(t *testing.T) {
	const k = 5
	for run := 0; run < 20; run++ {
		_, errs, err := RunLocal(k, uint64(run), func(m kmachine.Env) error {
			if m.ID() != 0 {
				m.Send(0, bytes.Repeat([]byte{byte(m.ID())}, 1+m.ID()*1000))
				return nil
			}
			m.EndRound()
			in := m.Recv()
			if len(in) != k-1 {
				return fmt.Errorf("node 0 received %d final messages, want %d", len(in), k-1)
			}
			for i, msg := range in {
				if msg.From != i+1 || len(msg.Payload) != 1+msg.From*1000 || msg.Payload[0] != byte(msg.From) {
					return fmt.Errorf("message %d: from %d, %d bytes", i, msg.From, len(msg.Payload))
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range errs {
			if e != nil {
				t.Fatalf("run %d node %d: %v", run, i, e)
			}
		}
	}
}

// TestInboxOrderedBySender has every node send to one receiver in the same
// round, with payload sizes that scramble arrival order, and demands that
// Recv() lists the messages by ascending sender on TCP and in the
// simulator alike.
func TestInboxOrderedBySender(t *testing.T) {
	const k, rounds = 6, 8
	prog := func(record func(r int, from []int)) kmachine.Program {
		return func(m kmachine.Env) error {
			for r := 0; r < rounds; r++ {
				if m.ID() != 0 {
					// Large payloads from high ids one round, low ids the next.
					size := 1 + ((m.ID()+r)%k)*4096
					m.Send(0, bytes.Repeat([]byte{byte(m.ID())}, size))
					m.Send(0, []byte{byte(m.ID())})
				}
				m.EndRound()
				if m.ID() == 0 {
					var from []int
					for _, msg := range m.Recv() {
						if msg.Payload[0] != byte(msg.From) {
							return fmt.Errorf("round %d: payload of %d tagged %d", r, msg.From, msg.Payload[0])
						}
						from = append(from, msg.From)
					}
					record(r, from)
				}
			}
			return nil
		}
	}
	want := make([]int, 0, 2*(k-1))
	for j := 1; j < k; j++ {
		want = append(want, j, j)
	}
	check := func(name string) func(int, []int) {
		return func(r int, from []int) {
			if fmt.Sprint(from) != fmt.Sprint(want) {
				t.Errorf("%s round %d: inbox senders %v, want %v", name, r, from, want)
			}
		}
	}
	_, errs, err := RunLocal(k, 21, prog(check("tcp")))
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("node %d: %v", i, e)
		}
	}
	if _, err := kmachine.Run(kmachine.Config{K: k, Seed: 21, BandwidthBytes: -1}, prog(check("sim"))); err != nil {
		t.Fatal(err)
	}
}

// TestParseRoundFrame covers the single-copy decoder: payloads survive the
// read buffer's reuse, appending to one cannot clobber the next, and a
// count the body cannot hold is refused before anything is sized by it.
func TestParseRoundFrame(t *testing.T) {
	var w wire.Writer
	w.U8(flagData)
	w.Varint(9)
	w.Varint(3)
	w.Varint(2)
	for _, m := range []string{"ab", "cde"} {
		w.Varint(uint64(len(m)))
		w.Raw([]byte(m))
	}
	buf := append([]byte(nil), w.Bytes()...)
	f, err := parseRoundFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	clear(buf)
	_ = append(f.msgs[0], 'X')
	if f.flag != flagData || f.epoch != 9 || f.round != 3 || len(f.msgs) != 2 ||
		string(f.msgs[0]) != "ab" || string(f.msgs[1]) != "cde" {
		t.Fatalf("decoded %+v", f)
	}

	var hostile wire.Writer
	hostile.U8(flagData)
	hostile.Varint(1)
	hostile.Varint(0)
	hostile.Varint(1 << 60)
	hostile.Varint(1)
	hostile.Raw([]byte{7})
	if _, err := parseRoundFrame(hostile.Bytes()); err == nil || err.Error() != "tcp: corrupt frame" {
		t.Fatalf("hostile count: got %v, want a corrupt frame error", err)
	}
	if _, err := parseRoundFrame([]byte{flagData, 1}); !errors.Is(err, wire.ErrTruncated) {
		t.Fatalf("truncated header: got %v", err)
	}
}

// BenchmarkMeshRound measures the BSP round on a loopback mesh: each epoch
// runs meshBenchRounds rounds in which every node sends a 16-byte message
// to every peer. win epochs run at once, as under the frontend's window.
// Reported per round of one epoch: wall time, allocations across the whole
// mesh, and how many round frames each link write carried.
func BenchmarkMeshRound(b *testing.B) {
	const meshBenchRounds = 16
	for _, k := range []int{4, 8} {
		for _, win := range []int{1, 8} {
			b.Run(fmt.Sprintf("k=%d/window=%d", k, win), func(b *testing.B) {
				nm := newNodeMetrics(nil)
				nodes := loopbackMesh(b, k, 1, nm)
				payload := make([]byte, 16)
				prog := func(m kmachine.Env) error {
					for r := 0; r < meshBenchRounds; r++ {
						m.Broadcast(payload)
						m.EndRound()
						m.Recv()
					}
					return nil
				}
				epoch := uint64(1)
				var wg sync.WaitGroup
				wave := func(w int) {
					runs := beginWave(b, nodes, epoch, w)
					epoch += uint64(w)
					for _, rs := range runs {
						for _, er := range rs {
							wg.Add(1)
							go func() {
								defer wg.Done()
								if err := er.execute(prog); err != nil {
									b.Error(err)
								}
							}()
						}
					}
					wg.Wait()
				}
				wave(win) // warm the link buffers
				writes0, frames0 := nm.linkWrites.Load(), nm.framesSent.Load()
				var ms0, ms1 runtime.MemStats
				runtime.ReadMemStats(&ms0)
				b.ResetTimer()
				for done := 0; done < b.N; done += win {
					wave(min(win, b.N-done))
				}
				b.StopTimer()
				runtime.ReadMemStats(&ms1)
				perRound := float64(b.N * meshBenchRounds)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perRound, "ns/round")
				b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/perRound, "allocs/round")
				b.ReportMetric(float64(nm.framesSent.Load()-frames0)/float64(nm.linkWrites.Load()-writes0), "frames/write")
			})
		}
	}
}
