// Package tcp runs k-machine programs over real TCP sockets: one process (or
// goroutine) per machine, a full connection mesh between them, and a
// coordinator that performs rendezvous (ID assignment and address exchange).
//
// The synchronous-round semantics match the in-process simulator exactly:
// messages sent in round r are delivered at the start of round r+1. Rounds
// are implemented BSP-style — at the end of each round every node sends
// exactly one frame (possibly empty) to every live peer and waits for one
// frame from each, so no global barrier service is needed. Bandwidth is that
// of the real network (the simulator's B-bits-per-round accounting has no
// TCP analogue), so round counts match a simulator run with unlimited
// bandwidth, and with the same seed the two runtimes execute bit-identical
// protocol decisions.
//
// A node that finishes marks its final frame with a halt flag; peers stop
// expecting frames from it. A node that fails broadcasts an error flag,
// which aborts every peer's run.
//
// Each mesh link has one writer goroutine and one buffered reader for its
// whole life. Sending a round frame only appends it to the link's queue;
// the writer puts everything queued while its previous write ran on the
// wire in one write, so with several epochs in flight their frames to the
// same peer share a syscall. The reader pulls frames through a buffer, so
// a frame's header and body — and the frames coalesced behind it — cost one
// read between them.
//
// Two deployment styles are offered, mirroring internal/kmachine's Run vs
// Runtime split:
//
//   - One-shot (RunNode, RunLocal): the mesh is built, a single program
//     runs, and everything is torn down — the coordinator carries no
//     protocol traffic and exits after rendezvous.
//
//   - Serving (Frontend, ServeNode, ServeLocal, Client): the nodes stay
//     resident after rendezvous, run a setup epoch once (leader election),
//     and then execute one BSP epoch per query dispatched by the frontend,
//     which also answers remote clients. Each epoch is an isolated run on
//     the standing mesh — fresh round numbering, fresh per-epoch randomness
//     derived from the session seed — so a serving cluster is deterministic
//     per (seed, query stream) exactly like the simulator. The frontend's
//     epoch scheduler may keep several epochs in flight at once (see
//     scheduler.go); every mesh frame is epoch-tagged and each peer link
//     demultiplexes arriving frames per epoch, so concurrent epochs share
//     the standing connections without ever observing each other. See
//     serve.go and docs/PROTOCOL.md.
package tcp

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"distknn/internal/kmachine"
	"distknn/internal/wire"
	"distknn/internal/xrand"
)

// Frame flags.
const (
	flagData = iota
	flagHalt
	flagErr
)

// Per-link budgets for the epoch demultiplexer. A well-behaved peer can have
// at most a couple of frames outstanding per epoch (BSP lockstep allows one
// unread data frame plus the final halt frame), and at most one early frame
// per epoch this node has not started yet (bounded by the frontend's window);
// a peer exceeding these is desynchronized or hostile and loses the link.
const (
	// subChanCap buffers one epoch's delivered frames.
	subChanCap = 8
	// stashEpochCap bounds the stashed frames of one not-yet-started epoch.
	stashEpochCap = 4
	// stashTotalCap bounds all stashed frames on one link.
	stashTotalCap = 256
)

// Metrics counts a node's local view of the run.
type Metrics struct {
	Rounds   int
	Messages int64 // protocol messages sent (not frames)
	Bytes    int64 // payload bytes sent
}

// transportError marks failures of the mesh itself — a lost connection, a
// corrupt or out-of-order frame — as opposed to a program deciding to fail.
// A resident serving node treats a program error as "this epoch failed, keep
// serving" but a transport error as "my mesh is broken": it reports the
// failure to the frontend with the fatal bit (naming the lost peer when it
// can) and keeps its seat, waiting for the implicated node to re-join.
type transportError struct {
	err  error
	peer int // machine whose link failed; -1 when not attributable
}

// transportFault wraps err as a mesh failure implicating machine peer
// (-1 when no single peer is to blame).
func transportFault(peer int, err error) transportError {
	return transportError{err: err, peer: peer}
}

func (e transportError) Error() string { return e.err.Error() }
func (e transportError) Unwrap() error { return e.err }

// IsTransportError reports whether err (or anything it wraps) signals a
// broken mesh rather than a failed program.
func IsTransportError(err error) bool {
	var te transportError
	return errors.As(err, &te)
}

// LostPeer returns the machine index a transport error implicates, or -1
// when err is not a transport error or no single peer could be blamed.
func LostPeer(err error) int {
	var te transportError
	if errors.As(err, &te) {
		return te.peer
	}
	return -1
}

// errPeerAbort marks an epoch ended by a peer's error frame: the failure
// originated elsewhere, this node only observed it. The serving path uses
// it to report the originating node's message to the client instead of k−1
// "aborted by peer" echoes.
var errPeerAbort = errors.New("aborted by peer")

// frame is one per-round unit from one peer. epoch identifies which BSP
// epoch of a resident mesh the frame belongs to; the peer link's
// demultiplexer routes each frame to the matching epoch's feed, so any
// number of concurrently pipelined epochs can share the link. One-shot runs
// are epoch 0.
type frame struct {
	flag  byte
	epoch uint64
	round uint64
	msgs  [][]byte
}

// peer is one mesh connection with its demultiplexing reader and its
// coalescing writer. Frames are routed per epoch: an epoch run subscribes
// before its first exchange and receives exactly its own frames on a
// private feed. Frames for epochs this node has not started yet (the peer
// read its dispatch earlier) are stashed until the subscription arrives;
// leftovers of completed epochs (final halt frames nobody reads) are
// dropped. A read or write failure closes every live feed — subscribers
// observe it as a channel close — and poisons the link for future
// subscriptions and sends.
type peer struct {
	conn net.Conn
	nm   *nodeMetrics // link write counters

	mu      sync.Mutex
	subs    map[uint64]chan frame
	stash   map[uint64][]frame
	nstash  int
	everSub bool   // at least one epoch has been subscribed
	maxSub  uint64 // highest epoch ever subscribed; subscriptions are monotonic
	err     error  // sticky read/routing failure

	// The send queue, guarded by wmu. send appends encoded frames to out
	// and wakes the writer, which swaps out for its spare buffer and puts
	// the whole batch on the wire in one write. Both buffers are owned by
	// the link for its lifetime; neither ever comes from the wire pool.
	wmu     sync.Mutex
	wake    *sync.Cond    // frames queued, link failed, or closing
	out     wire.Writer   // frames queued since the writer's last swap
	nout    int           // frames in out
	werr    error         // sticky link failure: sends are refused
	closing bool          // flush what is queued, then stop
	wdone   chan struct{} // closed when the writer exits

	// acked marks an accepted serving-mesh link whose handshake ack has
	// been written (guarded by Node.peersMu, not mu). Only then does
	// buildServeMesh count the link as seated.
	acked bool
}

// linkFlushTimeout bounds how long closing a link waits for its queued
// frames to drain into a peer that stopped reading.
const linkFlushTimeout = 5 * time.Second

func newPeer(conn net.Conn, nm *nodeMetrics) *peer {
	p := &peer{
		conn:  conn,
		nm:    nm,
		subs:  make(map[uint64]chan frame),
		stash: make(map[uint64][]frame),
		wdone: make(chan struct{}),
	}
	p.wake = sync.NewCond(&p.wmu)
	go p.readLoop()
	go p.writeLoop()
	return p
}

// readLoop pumps frames off the connection and routes them per epoch until
// the link dies.
func (p *peer) readLoop() {
	// bufio's default 4 KiB holds a round frame's header and body, and the
	// frames coalesced behind it, so they arrive in one read; a larger
	// frame's body bypasses the buffer. A 64 KiB buffer measured no faster
	// and made mesh set-up slower (it is allocated per link).
	br := bufio.NewReader(p.conn)
	// One buffer for the life of the link: parseRoundFrame copies the
	// message payloads out of the frame, so the frame bytes are dead the
	// moment it returns and the next read may overwrite them.
	var buf []byte
	for {
		payload, err := wire.ReadFrameInto(br, buf)
		buf = payload
		if err != nil {
			p.fail(err)
			// Close our end too: a framing error (as opposed to a dead
			// socket) leaves a TCP-healthy but poisoned link that nothing
			// else would ever close — the remote must see it drop.
			p.conn.Close()
			return
		}
		f, err := parseRoundFrame(payload)
		if err != nil {
			p.fail(err)
			p.conn.Close()
			return
		}
		if !p.route(f) {
			p.fail(fmt.Errorf("tcp: peer flooded the epoch demultiplexer"))
			p.conn.Close()
			return
		}
	}
}

// send queues one round frame for the link's writer and returns without
// touching the socket. Frames leave in the order they were queued. On a
// failed link it returns the sticky failure; a frame over wire.MaxFrame is
// refused alone and the link stays healthy.
func (p *peer) send(flag byte, epoch, round uint64, msgs [][]byte) error {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	if p.werr != nil {
		return p.werr
	}
	at := p.out.OpenFrame()
	p.out.U8(flag)
	p.out.Varint(epoch)
	p.out.Varint(round)
	p.out.Varint(uint64(len(msgs)))
	for _, m := range msgs {
		p.out.Varint(uint64(len(m)))
		p.out.Raw(m)
	}
	if err := p.out.CloseFrame(at); err != nil {
		return err
	}
	p.nout++
	p.wake.Signal()
	return nil
}

// writeLoop is the link's only writer once the handshake is done. Each
// pass takes everything queued so far and writes it with one Write — no
// lock is held across the write, so senders keep queueing behind it. It
// exits when the link fails, or once a closing link's queue is drained.
func (p *peer) writeLoop() {
	defer close(p.wdone)
	var spare wire.Writer
	for {
		p.wmu.Lock()
		for p.nout == 0 && !p.closing && p.werr == nil {
			p.wake.Wait()
		}
		if p.werr != nil || p.nout == 0 {
			p.wmu.Unlock()
			return
		}
		batch, frames := p.out, p.nout
		p.out, p.nout = spare, 0
		p.wmu.Unlock()

		if _, err := p.conn.Write(batch.Bytes()); err != nil {
			p.fail(err)
			return
		}
		// Frames first, so a reader never sees more writes than frames.
		p.nm.framesSent.Add(int64(frames))
		p.nm.linkWrites.Inc()
		batch.Reset()
		spare = batch
	}
}

// closeWriter asks the writer to flush the queue and stop; wdone closes
// once it has.
func (p *peer) closeWriter() {
	p.wmu.Lock()
	p.closing = true
	p.wake.Signal()
	p.wmu.Unlock()
}

// route delivers one frame to its epoch's feed, stashes it for an epoch not
// yet subscribed, or drops a completed epoch's leftover. It reports false
// when the peer exceeded a demultiplexer budget (a protocol violation).
func (p *peer) route(f frame) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return true // link already failed; the frame is moot
	}
	if ch, ok := p.subs[f.epoch]; ok {
		select {
		case ch <- f:
			return true
		default:
			return false // feed overflow: the peer is rounds ahead of lockstep
		}
	}
	if !p.everSub || f.epoch > p.maxSub {
		if len(p.stash[f.epoch]) >= stashEpochCap || p.nstash >= stashTotalCap {
			return false
		}
		p.stash[f.epoch] = append(p.stash[f.epoch], f)
		p.nstash++
		return true
	}
	return true // leftover of a completed (previously subscribed) epoch
}

// subscribe opens this link's frame feed for one epoch, delivering any
// frames the peer sent before this node started the epoch. Subscriptions
// must be opened in increasing epoch order (the serving dispatch loop and
// the frontend's ordinal assignment guarantee it); stashed frames of epochs
// below the new subscription can never be claimed and are pruned.
//
// On a failed link, frames stashed before the failure are still handed
// over, on a feed that is already closed: a one-shot peer may halt and
// close its end before this node begins the epoch, and its halt frame must
// count. With nothing stashed the subscription is refused.
func (p *peer) subscribe(epoch uint64) (chan frame, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil && len(p.stash[epoch]) == 0 {
		return nil, p.err
	}
	ch := make(chan frame, subChanCap)
	for _, f := range p.stash[epoch] {
		//knnlint:allow lockio -- replays at most subChanCap stashed frames into a fresh cap-subChanCap channel; cannot block
		ch <- f
	}
	p.nstash -= len(p.stash[epoch])
	delete(p.stash, epoch)
	//knnlint:allow detsource -- prunes every stale epoch's stash; deletion order is unobservable
	for e, fs := range p.stash {
		if e < epoch {
			p.nstash -= len(fs)
			delete(p.stash, e)
		}
	}
	if p.err != nil {
		close(ch)
		return ch, nil
	}
	p.subs[epoch] = ch
	if !p.everSub || epoch > p.maxSub {
		p.everSub = true
		p.maxSub = epoch
	}
	return ch, nil
}

// unsubscribe retires one epoch's feed; later frames for it are dropped.
func (p *peer) unsubscribe(epoch uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.subs, epoch)
}

// fail poisons the link: every live feed is closed (subscribers observe the
// loss as a channel close), sends and subscriptions are refused — except
// for epochs with frames stashed before the failure — and the writer stops,
// dropping whatever is still queued.
func (p *peer) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
		//knnlint:allow detsource -- poison fanout: every live feed closes; order is unobservable
		for e, ch := range p.subs {
			close(ch)
			delete(p.subs, e)
		}
	}
	p.mu.Unlock()

	p.wmu.Lock()
	if p.werr == nil {
		p.werr = err
	}
	p.wake.Signal()
	p.wmu.Unlock()
}

// cause returns why the link failed (nil while it is healthy).
func (p *peer) cause() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// Node owns one machine's standing mesh: the peer links, the session
// identity, and the bookkeeping shared by every epoch that runs on the
// mesh. Per-epoch execution state lives in epochRun — a Node can have any
// number of epochs in flight at once, which is what lets the frontend's
// scheduler pipeline query epochs over one mesh.
type Node struct {
	id, k int
	seed  uint64       // session seed (per-epoch seeds are derived from it)
	nm    *nodeMetrics // shared by every link the node owns

	// peers is indexed by machine id (self entry nil). One-shot meshes fill
	// it once and never touch it again; serving meshes mutate it — links of
	// lost peers are dropped, and the mesh accept loop installs replacement
	// links when a peer re-joins — so every access goes through peersMu.
	// A nil entry on a serving node means "link down, waiting for re-join".
	peersMu    sync.Mutex
	peersCond  *sync.Cond
	peers      []*peer
	acceptDown bool // the serving mesh accept loop has exited
}

// installPeer replaces machine j's mesh link with conn (closing any prior
// link, whose feeds then close), starts the new link's demultiplexing
// reader and returns it. Serving nodes call it from the mesh accept loop
// and dialPeer; one-shot meshes never replace links.
func (n *Node) installPeer(j int, conn net.Conn) *peer {
	p := newPeer(conn, n.nm)
	n.peersMu.Lock()
	old := n.peers[j]
	n.peers[j] = p
	n.peersCond.Broadcast()
	n.peersMu.Unlock()
	if old != nil {
		old.conn.Close()
	}
	return p
}

// markAcked records that the handshake ack of accepted link p is written.
func (n *Node) markAcked(p *peer) {
	n.peersMu.Lock()
	p.acked = true
	n.peersCond.Broadcast()
	n.peersMu.Unlock()
}

// dropPeer closes and forgets machine j's link — but only if it is still
// the link that failed; a replacement installed concurrently must win.
func (n *Node) dropPeer(j int, p *peer) {
	if p == nil {
		return
	}
	n.peersMu.Lock()
	if n.peers[j] == p {
		n.peers[j] = nil
	}
	n.peersMu.Unlock()
	p.conn.Close()
}

// peerSnapshot returns a consistent view of the mesh links. An epoch pins
// its snapshot for its whole run: a link replaced mid-epoch fails only that
// epoch (the replacement closes the old socket, whose feeds then close),
// and the next epoch starts on the fresh links.
func (n *Node) peerSnapshot() []*peer {
	n.peersMu.Lock()
	defer n.peersMu.Unlock()
	return append([]*peer(nil), n.peers...)
}

// closePeers shuts every mesh link after flushing its send queue, so the
// final halt frames of a one-shot node reach the peers still reading them.
// The flushes run concurrently, each bounded by linkFlushTimeout.
func (n *Node) closePeers() {
	links := n.peerSnapshot()
	for j, p := range links {
		if j != n.id && p != nil {
			p.conn.SetWriteDeadline(time.Now().Add(linkFlushTimeout))
			p.closeWriter()
		}
	}
	for j, p := range links {
		if j != n.id && p != nil {
			<-p.wdone
			p.conn.Close()
		}
	}
}

// newNode builds the mesh owner. conns may be nil for a serving node that
// installs its links through the mesh accept loop and installPeer instead.
// nm receives the link counters; nil binds them to a private registry.
func newNode(id, k int, seed uint64, conns []net.Conn, nm *nodeMetrics) *Node {
	if nm == nil {
		nm = newNodeMetrics(nil)
	}
	n := &Node{
		id:    id,
		k:     k,
		seed:  seed,
		nm:    nm,
		peers: make([]*peer, k),
	}
	n.peersCond = sync.NewCond(&n.peersMu)
	for j, conn := range conns {
		if conn == nil {
			continue
		}
		n.peers[j] = newPeer(conn, nm)
	}
	return n
}

// epochRun is one isolated BSP epoch executing on the standing mesh: it
// implements kmachine.Env with its own round numbering, inbox/outbox,
// metrics, and epoch-seeded randomness. Any number of epochRuns may be in
// flight on one Node concurrently — each subscribed its own per-epoch frame
// feed on every peer link, so the runs never observe each other's traffic.
type epochRun struct {
	n     *Node
	epoch uint64
	guid  uint64
	rng   *rand.Rand

	round   int
	inbox   []kmachine.Message
	outbox  [][][]byte // per-peer payloads queued this round
	metrics Metrics

	peers  []*peer        // pinned link snapshot for this epoch
	feeds  []<-chan frame // per-peer frame feed (nil for self / absent)
	halted []bool         // peers that sent their final frame this epoch
}

// beginEpoch pins the current mesh and subscribes the epoch's frame feeds.
// The epoch ordinal must be strictly greater than any previously begun
// ordinal on this node (the demultiplexer's stash pruning relies on it);
// epochSeed is derived by the caller from the session seed. It fails with a
// transport error naming the lowest absent or broken link, so a serving
// node never starts an epoch on an incomplete mesh.
func (n *Node) beginEpoch(epoch, epochSeed uint64) (*epochRun, error) {
	er := &epochRun{
		n:      n,
		epoch:  epoch,
		guid:   xrand.DeriveSeed(epochSeed, uint64(n.id)+(1<<32)),
		rng:    xrand.NewStream(epochSeed, uint64(n.id)),
		outbox: make([][][]byte, n.k),
		peers:  n.peerSnapshot(),
		feeds:  make([]<-chan frame, n.k),
		halted: make([]bool, n.k),
	}
	for j, p := range er.peers {
		if j == n.id {
			continue
		}
		if p == nil {
			er.release()
			return nil, transportFault(j, fmt.Errorf("tcp: node %d mesh link to %d is down", n.id, j))
		}
		ch, err := p.subscribe(epoch)
		if err != nil {
			er.release()
			return nil, transportFault(j, fmt.Errorf("tcp: node %d mesh link to %d is broken: %w", n.id, j, err))
		}
		er.feeds[j] = ch
	}
	return er, nil
}

// release retires the epoch's frame feeds; stale frames for it (a peer's
// final halt frames) are dropped by the demultiplexer from here on.
func (er *epochRun) release() {
	for j, p := range er.peers {
		if j != er.n.id && p != nil && er.feeds[j] != nil {
			p.unsubscribe(er.epoch)
		}
	}
}

var _ kmachine.Env = (*epochRun)(nil)

// ID returns the node's machine index.
func (er *epochRun) ID() int { return er.n.id }

// K returns the cluster size.
func (er *epochRun) K() int { return er.n.k }

// GUID returns the node's unique identifier for this epoch, derived from
// the epoch seed exactly as the simulator derives it.
func (er *epochRun) GUID() uint64 { return er.guid }

// Rand returns the epoch's private random stream (simulator-identical).
func (er *epochRun) Rand() *rand.Rand { return er.rng }

// Round returns the current round.
func (er *epochRun) Round() int { return er.round }

// Send queues payload for machine `to` next round.
func (er *epochRun) Send(to int, payload []byte) {
	if to < 0 || to >= er.n.k {
		panic(fmt.Sprintf("tcp: node %d sending to out-of-range %d", er.n.id, to))
	}
	if to == er.n.id {
		panic(fmt.Sprintf("tcp: node %d sending to itself", er.n.id))
	}
	er.outbox[to] = append(er.outbox[to], payload)
	er.metrics.Messages++
	er.metrics.Bytes += int64(len(payload) + kmachine.MessageOverheadBytes)
}

// Broadcast sends payload to every other machine.
func (er *epochRun) Broadcast(payload []byte) {
	for to := 0; to < er.n.k; to++ {
		if to != er.n.id {
			er.Send(to, payload)
		}
	}
}

// Recv takes this round's inbox.
func (er *epochRun) Recv() []kmachine.Message {
	in := er.inbox
	er.inbox = nil
	return in
}

// Gather advances rounds until n messages have been received.
func (er *epochRun) Gather(want int) []kmachine.Message {
	got := er.Recv()
	for len(got) < want {
		er.EndRound()
		got = append(got, er.Recv()...)
	}
	return got
}

// WaitAny advances rounds until at least one message arrives.
func (er *epochRun) WaitAny() []kmachine.Message { return er.Gather(1) }

// EndRound exchanges one frame with every live peer and advances the round.
func (er *epochRun) EndRound() {
	er.exchange(flagData)
	er.round++
	er.metrics.Rounds = er.round
}

// exchange queues this round's frame (with the given flag) on every live
// peer link, then reads one frame from each live peer, building the next
// round's inbox. Feeds are read in ascending peer order, so the inbox is
// ordered by sender exactly as the simulator delivers it.
func (er *epochRun) exchange(flag byte) {
	n := er.n
	sendErr, sendPeer := error(nil), -1
	for j := 0; j < n.k; j++ {
		if j == n.id || er.feeds[j] == nil || er.halted[j] {
			continue
		}
		if err := er.peers[j].send(flag, er.epoch, uint64(er.round), er.outbox[j]); err != nil && sendErr == nil {
			sendErr, sendPeer = err, j
		}
		// send copied the payloads into the link's queue.
		clear(er.outbox[j])
		er.outbox[j] = er.outbox[j][:0]
	}
	var next []kmachine.Message
	var remoteErr error
	for j := 0; j < n.k; j++ {
		if j == n.id || er.feeds[j] == nil || er.halted[j] {
			continue
		}
		f, ok := <-er.feeds[j]
		if !ok {
			n.dropPeer(j, er.peers[j])
			remoteErr = transportFault(j, fmt.Errorf("tcp: node %d lost peer %d: %v", n.id, j, er.peers[j].cause()))
			continue
		}
		if f.flag == flagErr {
			// An error frame is an epoch-level abort, valid at any round:
			// the peer failed at a different round than ours, or refused
			// the epoch before running a single round (abortEpoch). The
			// link itself is healthy — only this epoch dies. A broken link
			// seen this round outranks the echo: it is what the frontend
			// must act on.
			if !IsTransportError(remoteErr) {
				remoteErr = fmt.Errorf("tcp: node %d %w %d", n.id, errPeerAbort, j)
			}
			continue
		}
		if f.round != uint64(er.round) {
			n.dropPeer(j, er.peers[j])
			remoteErr = transportFault(j, fmt.Errorf("tcp: node %d got round %d frame from %d during round %d of epoch %d",
				n.id, f.round, j, er.round, er.epoch))
			continue
		}
		if f.flag == flagHalt {
			er.halted[j] = true
		}
		for _, payload := range f.msgs {
			next = append(next, kmachine.Message{From: j, To: n.id, Payload: payload})
		}
	}
	if remoteErr != nil {
		panic(remoteErr) // recovered by execute
	}
	// A send refused because the peer halted this very round (it closed
	// its sockets after its halt frame) is benign; any other refusal is a
	// real transport error.
	if sendErr != nil && !er.halted[sendPeer] {
		n.dropPeer(sendPeer, er.peers[sendPeer])
		panic(transportFault(sendPeer, fmt.Errorf("tcp: node %d write to %d: %w", n.id, sendPeer, sendErr)))
	}
	er.inbox = next
}

// exchangeHalt queues halt frames (write-only: a halted node never reads
// again, matching the simulator's semantics).
func (er *epochRun) exchangeHalt() {
	for j := 0; j < er.n.k; j++ {
		if j == er.n.id || er.feeds[j] == nil || er.halted[j] {
			continue
		}
		// Ignore errors: the peer may have halted concurrently.
		_ = er.peers[j].send(flagHalt, er.epoch, uint64(er.round), er.outbox[j])
		er.outbox[j] = nil
	}
}

// execute runs prog as this epoch, translating the final state into
// halt/error frames for the peers and releasing the epoch's frame feeds. It
// leaves the connections open so other (and later) epochs keep running on
// the standing mesh.
func (er *epochRun) execute(prog kmachine.Program) (err error) {
	defer er.release()
	defer func() {
		if rec := recover(); rec != nil {
			if e, ok := rec.(error); ok {
				err = e
			} else {
				err = fmt.Errorf("tcp: node %d panicked: %v", er.n.id, rec)
			}
			// Best effort: tell the peers this epoch is gone here.
			for j := range er.peers {
				if j != er.n.id && er.feeds[j] != nil && !er.halted[j] {
					_ = er.peers[j].send(flagErr, er.epoch, uint64(er.round), nil)
				}
			}
		}
	}()
	if perr := prog(er); perr != nil {
		panic(perr)
	}
	// Clean halt: flush pending sends with the halt flag.
	er.exchangeHalt()
	return nil
}

// runEpoch executes prog as one isolated BSP epoch on the standing mesh —
// the serving path uses it for the setup epoch; dispatched query epochs
// begin on the read loop and run through epochRun.execute / runBatch
// (serve.go's runDispatchedEpoch) instead.
func (n *Node) runEpoch(epoch, epochSeed uint64, prog kmachine.Program) (Metrics, error) {
	er, err := n.beginEpoch(epoch, epochSeed)
	if err != nil {
		return Metrics{}, err
	}
	err = er.execute(prog)
	return er.metrics, err
}

// abortEpoch tells every live peer that this node will never run the given
// epoch (beginEpoch refused it — e.g. a dead link to a third peer), so a
// peer that already started the epoch aborts it instead of waiting forever
// for this node's frames. Error frames are epoch-level: receivers honor
// them at any round, and a peer that never starts the epoch drops the
// frame as a leftover.
func (n *Node) abortEpoch(epoch uint64) {
	for j, p := range n.peerSnapshot() {
		if j != n.id && p != nil {
			_ = p.send(flagErr, epoch, 0, nil)
		}
	}
}

// runProgram executes one one-shot program (epoch 0, seeded directly from
// the session seed — identical identity derivation to the simulator) and
// tears the mesh down.
func (n *Node) runProgram(prog kmachine.Program) (Metrics, error) {
	er, err := n.beginEpoch(0, n.seed)
	if err != nil {
		n.closePeers()
		return Metrics{}, err
	}
	err = er.execute(prog)
	n.closePeers()
	return er.metrics, err
}

// parseRoundFrame decodes one round frame payload. The message region is
// copied out of the (reused) read buffer once, and each payload is a
// capacity-clipped sub-slice of that copy.
func parseRoundFrame(payload []byte) (frame, error) {
	r := wire.NewReader(payload)
	f := frame{flag: r.U8(), epoch: r.Varint(), round: r.Varint()}
	count := r.Varint()
	if r.Err() != nil {
		return frame{}, r.Err()
	}
	if count == 0 {
		return f, nil
	}
	body := append([]byte(nil), r.Raw(r.Remaining())...)
	r = wire.NewReader(body)
	// Every message costs at least its one-byte length prefix, so the
	// remaining bytes bound any honest count.
	f.msgs = make([][]byte, 0, min(count, uint64(r.Remaining())))
	for i := uint64(0); i < count; i++ {
		size := r.Varint()
		if r.Err() != nil || size > uint64(r.Remaining()) {
			return frame{}, fmt.Errorf("tcp: corrupt frame")
		}
		m := r.Raw(int(size))
		f.msgs = append(f.msgs, m[:size:size])
	}
	if r.Err() != nil {
		return frame{}, r.Err()
	}
	return f, nil
}
