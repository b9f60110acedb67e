package tcp

import (
	"fmt"
	"net"
	"sync"

	"distknn/internal/kmachine"
	"distknn/internal/wire"
)

// Coordinator performs rendezvous for a one-shot k-node cluster: nodes
// register their mesh listen addresses, the coordinator assigns machine
// indices in registration order and sends every node the full address book.
// It carries no protocol traffic and exits after rendezvous. For a resident
// serving cluster, use Frontend instead.
type Coordinator struct {
	ln   net.Listener
	k    int
	seed uint64
}

// NewCoordinator starts the rendezvous listener on addr (e.g.
// "127.0.0.1:0").
func NewCoordinator(addr string, k int, seed uint64) (*Coordinator, error) {
	if k < 1 {
		return nil, fmt.Errorf("tcp: coordinator needs k >= 1, got %d", k)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcp: coordinator listen: %w", err)
	}
	return &Coordinator{ln: ln, k: k, seed: seed}, nil
}

// Addr returns the coordinator's dialable address.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Close releases the listener (safe after Wait).
func (c *Coordinator) Close() error { return c.ln.Close() }

// Wait accepts the k registrations and distributes assignments; it returns
// when every node has been configured.
func (c *Coordinator) Wait() error {
	conns, addrs, err := acceptRegistrations(c.ln, c.k)
	defer func() {
		for _, conn := range conns {
			conn.Close()
		}
	}()
	if err != nil {
		return err
	}
	for id, conn := range conns {
		if err := writeAssign(conn, wire.ModeOneShot, id, c.k, c.seed, addrs); err != nil {
			return err
		}
	}
	return nil
}

// acceptRegistrations collects k KindRegister frames from ln, returning the
// control connections and mesh addresses in registration order. On error the
// already-accepted connections are still returned so the caller can close
// them.
func acceptRegistrations(ln net.Listener, k int) ([]net.Conn, []string, error) {
	conns := make([]net.Conn, 0, k)
	addrs := make([]string, 0, k)
	for len(conns) < k {
		conn, err := ln.Accept()
		if err != nil {
			return conns, addrs, fmt.Errorf("tcp: coordinator accept: %w", err)
		}
		addr, err := readRegister(conn)
		if err != nil {
			conn.Close()
			return conns, addrs, err
		}
		conns = append(conns, conn)
		addrs = append(addrs, addr)
	}
	return conns, addrs, nil
}

// readRegister decodes one KindRegister frame from a fresh connection.
func readRegister(conn net.Conn) (string, error) {
	payload, err := wire.ReadFrame(conn)
	if err != nil {
		return "", fmt.Errorf("tcp: coordinator read register: %w", err)
	}
	r := wire.NewReader(payload)
	if kind := r.Kind(); kind != wire.KindRegister {
		return "", fmt.Errorf("tcp: expected register, got kind %d", kind)
	}
	addr := r.String()
	if err := r.Err(); err != nil {
		return "", fmt.Errorf("tcp: bad register: %w", err)
	}
	return addr, nil
}

// writeAssign sends one KindAssign frame: session mode, machine index,
// cluster size, session seed and the full mesh address book.
func writeAssign(conn net.Conn, mode uint8, id, k int, seed uint64, addrs []string) error {
	var w wire.Writer
	w.Kind(wire.KindAssign)
	w.U8(mode)
	w.Varint(uint64(id))
	w.Varint(uint64(k))
	w.U64(seed)
	for _, a := range addrs {
		w.String(a)
	}
	if err := wire.WriteFrame(conn, w.Bytes()); err != nil {
		return fmt.Errorf("tcp: coordinator assign to %d: %w", id, err)
	}
	return nil
}

// assignment is what a node learns from the coordinator at join time.
type assignment struct {
	mode  uint8
	id, k int
	seed  uint64
	addrs []string
}

// join registers the node's mesh address with the coordinator and reads
// back the assignment. advertise is the address peers are told to dial; if
// empty, ln's own address is registered (right whenever the bind address is
// reachable as-is). The returned control connection stays open; a one-shot
// node closes it immediately, a serving node keeps it for dispatches.
func join(coordAddr string, ln net.Listener, advertise string) (net.Conn, assignment, error) {
	if advertise == "" {
		advertise = ln.Addr().String()
	}
	coord, err := net.Dial("tcp", coordAddr)
	if err != nil {
		return nil, assignment{}, fmt.Errorf("tcp: dial coordinator: %w", err)
	}
	var reg wire.Writer
	reg.Kind(wire.KindRegister)
	reg.String(advertise)
	if err := wire.WriteFrame(coord, reg.Bytes()); err != nil {
		coord.Close()
		return nil, assignment{}, fmt.Errorf("tcp: register: %w", err)
	}
	payload, err := wire.ReadFrame(coord)
	if err != nil {
		coord.Close()
		return nil, assignment{}, fmt.Errorf("tcp: read assignment: %w", err)
	}
	r := wire.NewReader(payload)
	if kind := r.Kind(); kind != wire.KindAssign {
		coord.Close()
		return nil, assignment{}, fmt.Errorf("tcp: expected assignment, got kind %d", kind)
	}
	a := assignment{
		mode: r.U8(),
		id:   int(r.Varint()),
		k:    int(r.Varint()),
		seed: r.U64(),
	}
	a.addrs = make([]string, a.k)
	for i := range a.addrs {
		a.addrs[i] = r.String()
	}
	if err := r.Err(); err != nil {
		coord.Close()
		return nil, assignment{}, fmt.Errorf("tcp: bad assignment: %w", err)
	}
	return coord, a, nil
}

// RunNode joins the cluster at the coordinator's address and executes prog
// as one machine. It returns the node's local metrics when the program
// completes. meshAddr is the address to listen on for peer connections
// ("127.0.0.1:0" picks a free port).
func RunNode(coordAddr, meshAddr string, prog kmachine.Program) (Metrics, error) {
	ln, err := net.Listen("tcp", meshAddr)
	if err != nil {
		return Metrics{}, fmt.Errorf("tcp: node mesh listen: %w", err)
	}
	defer ln.Close()

	coord, a, err := join(coordAddr, ln, "")
	if err != nil {
		return Metrics{}, err
	}
	defer coord.Close()
	if a.mode != wire.ModeOneShot {
		return Metrics{}, fmt.Errorf("tcp: coordinator runs mode %d, RunNode requires one-shot; use ServeNode", a.mode)
	}

	conns, err := buildMesh(ln, a.id, a.k, a.addrs)
	if err != nil {
		return Metrics{}, err
	}
	node := newNode(a.id, a.k, a.seed, conns, nil)
	return node.runProgram(prog)
}

// buildMesh establishes the k−1 peer connections: this node dials every
// lower id (announcing its own id) and accepts one connection from every
// higher id.
func buildMesh(ln net.Listener, id, k int, addrs []string) ([]net.Conn, error) {
	conns := make([]net.Conn, k)
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, k)

	for j := 0; j < id; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addrs[j])
			if err != nil {
				errs <- fmt.Errorf("tcp: node %d dial peer %d: %w", id, j, err)
				return
			}
			var w wire.Writer
			w.Varint(uint64(id))
			if err := wire.WriteFrame(conn, w.Bytes()); err != nil {
				conn.Close()
				errs <- fmt.Errorf("tcp: node %d hello to %d: %w", id, j, err)
				return
			}
			mu.Lock()
			conns[j] = conn
			mu.Unlock()
		}(j)
	}
	for have := 0; have < k-1-id; have++ {
		conn, err := ln.Accept()
		if err != nil {
			return nil, fmt.Errorf("tcp: node %d accept: %w", id, err)
		}
		payload, err := wire.ReadFrame(conn)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("tcp: node %d read hello: %w", id, err)
		}
		r := wire.NewReader(payload)
		peerID := int(r.Varint())
		if r.Err() != nil || peerID <= id || peerID >= k {
			conn.Close()
			return nil, fmt.Errorf("tcp: node %d got invalid hello id %d", id, peerID)
		}
		mu.Lock()
		dup := conns[peerID] != nil
		if !dup {
			conns[peerID] = conn
		}
		mu.Unlock()
		if dup {
			conn.Close()
			return nil, fmt.Errorf("tcp: duplicate hello from %d", peerID)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return nil, err
	}
	return conns, nil
}

// RunLocal runs a whole cluster in-process over loopback TCP — one goroutine
// per node plus the coordinator — and returns each node's metrics and error.
// It is the single-binary way to exercise the real-socket path (tests,
// examples, cmd/knnnode -local).
//
// Machine indices are assigned by the coordinator in registration order, so
// the same program runs on every node and must select its behaviour and data
// through m.ID() — exactly like a real deployment, where each process
// discovers its identity at join time. The returned slices are indexed by
// machine id.
func RunLocal(k int, seed uint64, prog kmachine.Program) ([]Metrics, []error, error) {
	coord, err := NewCoordinator("127.0.0.1:0", k, seed)
	if err != nil {
		return nil, nil, err
	}
	defer coord.Close()
	coordErr := make(chan error, 1)
	go func() { coordErr <- coord.Wait() }()

	metrics := make([]Metrics, k)
	errs := make([]error, k)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var id int
			met, err := RunNode(coord.Addr(), "127.0.0.1:0", func(m kmachine.Env) error {
				id = m.ID()
				return prog(m)
			})
			mu.Lock()
			metrics[id], errs[id] = met, err
			mu.Unlock()
		}()
	}
	wg.Wait()
	if err := <-coordErr; err != nil {
		return metrics, errs, err
	}
	return metrics, errs, nil
}
