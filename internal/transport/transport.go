// Package transport is the TCP shuffle fabric of the distributed miners: it
// moves the serialized key/value frames of one BSP job (internal/mapreduce)
// between worker processes over persistent, length-prefixed TCP connections.
//
// A process runs one Node, which owns a listening socket for the lifetime of
// the process and demultiplexes inbound peer connections onto per-attempt
// Exchanges by the job id carried in the connection handshake.
// An Exchange implements mapreduce.ByteExchange: every ordered peer pair uses
// one connection (opened by the sender), frames destined to a peer are
// streamed as they are produced, and an end frame per connection forms the
// shuffle barrier. Inbound frames are buffered in a bounded inbox, so a slow
// reducer exerts backpressure on remote senders through TCP flow control.
//
// Failure semantics of one exchange are fail-stop: a broken or missing
// connection fails the whole exchange (every blocked Send/Recv returns the
// error). The error is a *PeerError naming the peer whose connection broke,
// so a scheduler above the fabric (internal/cluster) can treat the death as
// one attempt's failure — mark that worker dead, re-execute the attempt —
// instead of a global abort. A re-executed attempt opens its Exchange under a
// fresh job id, so a zombie sender from a dead attempt names an id no open
// Exchange has: the Node parks its connection and drops it after the adopt
// timeout, and its frames never reach the restarted shuffle.
//
// The Exchange counts the actual bytes written to and read from its sockets
// (handshake, data and end frames; the one-byte handshake ack is excluded),
// which the engine reports as the true ShuffleBytes.
package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"seqmine/internal/obs"
)

// Config tunes a Node. The zero value is ready for use.
type Config struct {
	// Advertise is the address other peers should dial, when it differs from
	// the listener's address (e.g. listening on ":9101" behind a hostname).
	Advertise string

	// adoptTimeout replaces the package's adoptTimeout when non-zero; only
	// tests set it.
	adoptTimeout time.Duration
}

const (
	// handshakeTimeout bounds connection setup (dial, handshake, ack).
	handshakeTimeout = 10 * time.Second
	// dialRetryWindow is how long an Exchange keeps retrying to reach a peer
	// that refuses connections (it may not have started yet).
	dialRetryWindow = 20 * time.Second
	// adoptTimeout is how long an accepted connection waits for its job to
	// be opened locally before it is dropped.
	adoptTimeout = 60 * time.Second
	// openTimeout is how long an Exchange waits for every remote peer to
	// connect before the job fails.
	openTimeout = 60 * time.Second
	// maxFrame bounds the payload of one frame.
	maxFrame = 64 << 20
	// inboxFrames bounds the number of buffered inbound frames per Exchange
	// (the backpressure window).
	inboxFrames = 256
)

// Node owns a process's shuffle listener and the set of open exchanges.
type Node struct {
	cfg  Config
	ln   net.Listener
	done chan struct{}
	wg   sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*jobEntry
	closed bool
}

// jobEntry connects inbound connections to the local Exchange of one job
// attempt. The ready channel is closed once ex is set, so connections that
// arrive before the attempt is opened locally can wait. The entry is dropped
// when its Exchange closes, or when no Exchange opened it within the adopt
// timeout, so job ids do not accumulate.
type jobEntry struct {
	ready chan struct{}
	ex    *Exchange
}

// NewNode listens on addr ("host:port", ":0" for an ephemeral port) and
// starts accepting peer connections.
func NewNode(addr string, cfg Config) (*Node, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	n := &Node{
		cfg:  cfg,
		ln:   ln,
		done: make(chan struct{}),
		jobs: map[string]*jobEntry{},
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the address peers should dial: the Advertise address when
// configured, otherwise the listener's address (with unspecified hosts
// rewritten to 127.0.0.1 so the result is dialable).
func (n *Node) Addr() string {
	if n.cfg.Advertise != "" {
		return n.cfg.Advertise
	}
	addr, ok := n.ln.Addr().(*net.TCPAddr)
	if !ok {
		return n.ln.Addr().String()
	}
	if addr.IP == nil || addr.IP.IsUnspecified() {
		return net.JoinHostPort("127.0.0.1", strconv.Itoa(addr.Port))
	}
	return addr.String()
}

// Close stops the listener and closes every open exchange.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	close(n.done)
	jobs := n.jobs
	n.jobs = map[string]*jobEntry{}
	n.mu.Unlock()

	err := n.ln.Close()
	for _, entry := range jobs {
		select {
		case <-entry.ready:
			entry.ex.Close()
		default:
		}
	}
	n.wg.Wait()
	return err
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.wg.Add(1)
		go n.handleInbound(conn)
	}
}

// handleInbound validates a peer connection's handshake and hands it to the
// attempt's Exchange, waiting (bounded) for the attempt to be opened locally.
// A connection whose attempt is never opened here — a zombie of a dead
// attempt, or a made-up id — is dropped after the adopt timeout.
func (n *Node) handleInbound(conn net.Conn) {
	defer n.wg.Done()
	cr := &countingReader{r: conn}
	br := bufio.NewReader(cr)
	_ = conn.SetDeadline(time.Now().Add(handshakeTimeout))
	jobID, sender, trace, err := readHandshake(br)
	if err != nil {
		conn.Close()
		return
	}

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		conn.Close()
		return
	}
	entry, ok := n.jobs[jobID]
	if !ok {
		entry = &jobEntry{ready: make(chan struct{})}
		n.jobs[jobID] = entry
	}
	n.mu.Unlock()

	// Ack once the connection is bound to its attempt's entry, so a dialer
	// that holds the ack knows the node tracks its connection.
	if _, err := conn.Write([]byte{protocolVersion}); err != nil {
		conn.Close()
		n.dropIfUnopened(jobID, entry)
		return
	}
	_ = conn.SetDeadline(time.Time{})

	adopt := adoptTimeout
	if n.cfg.adoptTimeout > 0 {
		adopt = n.cfg.adoptTimeout
	}
	timer := time.NewTimer(adopt)
	defer timer.Stop()
	select {
	case <-entry.ready:
		entry.ex.adoptInbound(sender, conn, br, cr, trace)
	case <-timer.C:
		conn.Close()
		n.dropIfUnopened(jobID, entry)
	case <-n.done:
		conn.Close()
	}
}

// dropIfUnopened removes an attempt entry that never got a local exchange, so
// ids of abandoned attempts (a peer dialing a worker whose own job setup
// failed, or garbage connections with made-up job ids) do not accumulate in
// the jobs map for the life of the node.
func (n *Node) dropIfUnopened(jobID string, entry *jobEntry) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.jobs[jobID] != entry {
		return
	}
	select {
	case <-entry.ready:
		// Opened locally; Exchange.Close releases it.
	default:
		delete(n.jobs, jobID)
	}
}

// release removes a finished attempt so the job id can be reused.
func (n *Node) release(jobID string, ex *Exchange) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if entry, ok := n.jobs[jobID]; ok && entry.ex == ex {
		delete(n.jobs, jobID)
	}
}

// PeerError is the failure of one peer's connection within an exchange. It
// names the peer so a scheduler can turn the death into a targeted task
// failure (mark that worker dead, re-execute) instead of an anonymous global
// abort. Unwrap exposes the underlying I/O error.
type PeerError struct {
	// Peer is the index of the peer whose connection failed.
	Peer int
	// Err is the underlying failure.
	Err error
}

func (e *PeerError) Error() string {
	return fmt.Sprintf("transport: peer %d failed: %v", e.Peer, e.Err)
}

func (e *PeerError) Unwrap() error { return e.Err }

// peerCounters is one peer's traffic within an exchange: real socket bytes
// including protocol overhead, and frames. The transport.send and
// transport.recv spans report them.
type peerCounters struct {
	bytesOut, framesOut, bytesIn, framesIn atomic.Int64
}

// outConn is the sending half of one peer pair: a persistent connection with
// a buffered writer, serialized by a mutex so concurrent Sends interleave at
// frame granularity.
type outConn struct {
	mu   sync.Mutex
	conn net.Conn
	bw   *bufio.Writer
	err  error // sticky
}

// Exchange is the per-job shuffle endpoint of this process. It implements
// mapreduce.ByteExchange.
type Exchange struct {
	node  *Node
	jobID string
	self  int
	peers []string

	outs  []*outConn // index per peer; nil for self
	inbox chan []byte
	stats []peerCounters

	// Tracing (optional): the recorder and trace context captured from the
	// context handed to OpenExchangeContext. traceWire is the handshake trace
	// field sent to every peer; openedAt anchors the per-peer send spans.
	obsCtx    context.Context
	traceWire []byte
	openedAt  time.Time

	mu         sync.Mutex
	ins        []net.Conn // adopted inbound connections, index per peer
	adopted    int
	finished   int // remote peers whose end frame arrived
	err        error
	closed     bool
	failed     chan struct{} // closed on first failure
	closedCh   chan struct{} // closed by Close
	allAdopted chan struct{} // closed when every remote peer connected
}

// OpenExchange creates the local endpoint of job jobID without a trace
// context. See OpenExchangeContext.
func (n *Node) OpenExchange(jobID string, self int, peers []string) (*Exchange, error) {
	return n.OpenExchangeContext(context.Background(), jobID, self, peers)
}

// OpenExchangeContext creates the local endpoint of the job attempt named
// jobID. peers lists the shuffle address of every participant in peer order;
// self is this process's index in it. The call dials every remote peer
// (retrying while the peer starts up) and returns once all outbound
// connections are established; inbound connections attach as the remote
// peers open their side. An id names one attempt: it may be open at most once
// on a node at a time, and a scheduler retrying a job opens the retry under a
// fresh id.
//
// When ctx carries an obs trace context, the exchange propagates it in the
// handshake to every peer and records per-peer transport.send/transport.recv
// spans into ctx's recorder. Cancelling ctx stops the dialing, and the call
// returns an error that wraps ctx's. Once the call has returned, ctx does not
// control the exchange's lifetime — callers cancel via Close, typically
// through context.AfterFunc.
func (n *Node) OpenExchangeContext(ctx context.Context, jobID string, self int, peers []string) (*Exchange, error) {
	if jobID == "" || len(jobID) > maxJobIDLen {
		return nil, fmt.Errorf("transport: job id length %d out of range", len(jobID))
	}
	if self < 0 || self >= len(peers) {
		return nil, fmt.Errorf("transport: self index %d out of range for %d peers", self, len(peers))
	}
	if len(peers) > maxPeerIndex {
		return nil, fmt.Errorf("transport: %d peers exceed the protocol limit", len(peers))
	}
	if ctx == nil {
		ctx = context.Background()
	}
	e := &Exchange{
		node:       n,
		jobID:      jobID,
		self:       self,
		peers:      append([]string(nil), peers...),
		outs:       make([]*outConn, len(peers)),
		inbox:      make(chan []byte, inboxFrames),
		stats:      make([]peerCounters, len(peers)),
		ins:        make([]net.Conn, len(peers)),
		failed:     make(chan struct{}),
		closedCh:   make(chan struct{}),
		allAdopted: make(chan struct{}),
		obsCtx:     ctx,
		traceWire:  obs.TraceBytes(ctx),
		openedAt:   time.Now(),
	}

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, errors.New("transport: node is closed")
	}
	entry, ok := n.jobs[jobID]
	if !ok {
		entry = &jobEntry{ready: make(chan struct{})}
		n.jobs[jobID] = entry
	}
	select {
	case <-entry.ready:
		n.mu.Unlock()
		return nil, fmt.Errorf("transport: job %q is already open on this node", jobID)
	default:
	}
	entry.ex = e
	close(entry.ready)
	n.mu.Unlock()

	if len(peers) == 1 {
		close(e.allAdopted)
		close(e.inbox) // no remote senders: the shuffle barrier is trivially met
	} else {
		go e.watchAdoption()
	}

	var wg sync.WaitGroup
	dialErrs := make(chan error, len(peers))
	for p := range peers {
		if p == self {
			continue
		}
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			if err := e.dialPeer(ctx, p); err != nil {
				dialErrs <- fmt.Errorf("transport: connecting to peer %d (%s): %w", p, peers[p], err)
			}
		}(p)
	}
	wg.Wait()
	select {
	case err := <-dialErrs:
		e.Close()
		return nil, err
	default:
	}
	return e, nil
}

// dialPeer establishes the outbound connection to peer p, retrying while the
// peer process may still be starting, until ctx is cancelled.
func (e *Exchange) dialPeer(ctx context.Context, p int) error {
	deadline := time.Now().Add(dialRetryWindow)
	dialer := net.Dialer{Timeout: handshakeTimeout}
	var conn net.Conn
	for {
		var err error
		conn, err = dialer.DialContext(ctx, "tcp", e.peers[p])
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return err
		}
		select {
		case <-e.closedCh:
			return errors.New("transport: exchange closed while dialing")
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
	cw := &countingWriter{w: conn, n: &e.stats[p].bytesOut}
	bw := bufio.NewWriter(cw)
	_ = conn.SetDeadline(time.Now().Add(handshakeTimeout))
	if _, err := bw.Write(appendHandshake(nil, e.jobID, e.self, e.traceWire)); err != nil {
		conn.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		conn.Close()
		return err
	}
	ack := make([]byte, 1)
	if _, err := io.ReadFull(conn, ack); err != nil {
		conn.Close()
		return fmt.Errorf("reading handshake ack: %w", err)
	}
	if ack[0] != protocolVersion {
		conn.Close()
		return fmt.Errorf("handshake ack version %d, want %d", ack[0], protocolVersion)
	}
	_ = conn.SetDeadline(time.Time{})
	e.mu.Lock() // fail may walk e.outs while other peers are still dialing
	e.outs[p] = &outConn{conn: conn, bw: bw}
	e.mu.Unlock()
	return nil
}

// watchAdoption fails the exchange if the remote peers do not all connect
// within the open timeout.
func (e *Exchange) watchAdoption() {
	timer := time.NewTimer(openTimeout)
	defer timer.Stop()
	select {
	case <-e.allAdopted:
	case <-e.closedCh:
	case <-timer.C:
		e.fail(fmt.Errorf("transport: job %q: not all peers connected within %v", e.jobID, openTimeout))
	}
}

// adoptInbound attaches an accepted, handshaken connection from a remote
// sender and starts its read loop. trace is the sender's handshake trace
// field; the stream's transport.recv span is parented under it so the span
// links to the remote sender's context in a merged trace.
func (e *Exchange) adoptInbound(sender int, conn net.Conn, br *bufio.Reader, cr *countingReader, trace []byte) {
	e.mu.Lock()
	if e.closed || sender < 0 || sender >= len(e.peers) || sender == e.self || e.ins[sender] != nil {
		e.mu.Unlock()
		conn.Close()
		return
	}
	e.ins[sender] = conn
	e.adopted++
	if e.adopted == len(e.peers)-1 {
		close(e.allAdopted)
	}
	e.mu.Unlock()
	cr.attach(&e.stats[sender].bytesIn)
	go e.readLoop(sender, br, trace, time.Now())
}

// recordRecvSpan records the lifetime of one inbound stream once its end
// frame arrives. No-op without a local recorder.
func (e *Exchange) recordRecvSpan(sender int, trace []byte, start time.Time) {
	rec := obs.RecorderFrom(e.obsCtx)
	if rec == nil {
		return
	}
	traceID, parent, ok := obs.ParseTraceBytes(trace)
	if !ok {
		// Sender carried no context (e.g. an untraced process); fall back to
		// the local trace so the span is not orphaned.
		traceID, parent = obs.SpanContextFrom(e.obsCtx)
	}
	if traceID == "" {
		return
	}
	rec.Record(obs.SpanRecord{
		Trace:       traceID,
		Span:        obs.NewSpanID(),
		Parent:      parent,
		Name:        "transport.recv",
		StartUnixNS: start.UnixNano(),
		DurationNS:  int64(time.Since(start)),
		Attrs: []obs.Attr{
			obs.String("job", e.jobID),
			obs.Int("sender", int64(sender)),
			obs.Int("bytes_in", e.stats[sender].bytesIn.Load()),
			obs.Int("frames_in", e.stats[sender].framesIn.Load()),
		},
	})
}

// readLoop pumps one inbound connection into the bounded inbox until the end
// frame. The loop that completes the last open stream closes the inbox,
// which is the EOF signal of Recv.
func (e *Exchange) readLoop(sender int, br *bufio.Reader, trace []byte, started time.Time) {
	for {
		payload, end, err := readFrame(br, maxFrame)
		if err != nil {
			e.fail(&PeerError{Peer: sender, Err: fmt.Errorf("receiving: %w", err)})
			return
		}
		if end {
			e.recordRecvSpan(sender, trace, started)
			e.mu.Lock()
			e.finished++
			done := e.finished == len(e.peers)-1 && !e.closed
			e.mu.Unlock()
			if done {
				close(e.inbox)
			}
			return
		}
		e.stats[sender].framesIn.Add(1)
		select {
		case e.inbox <- payload:
		case <-e.closedCh:
			return
		}
	}
}

// NumPeers returns the number of job participants.
func (e *Exchange) NumPeers() int { return len(e.peers) }

// Self returns this process's peer index.
func (e *Exchange) Self() int { return e.self }

// Send streams one frame to peer dst. The frame is fully buffered or written
// before Send returns, so the caller may reuse the slice.
func (e *Exchange) Send(dst int, frame []byte) error {
	if dst == e.self {
		return errors.New("transport: self-delivery must be short-circuited by the caller")
	}
	if dst < 0 || dst >= len(e.peers) {
		return fmt.Errorf("transport: unknown peer %d of %d", dst, len(e.peers))
	}
	oc := e.outs[dst]
	if oc == nil {
		return fmt.Errorf("transport: peer %d is not connected", dst)
	}
	oc.mu.Lock()
	defer oc.mu.Unlock()
	if oc.err != nil {
		return oc.err
	}
	if err := writeFrame(oc.bw, frame); err != nil {
		oc.err = e.writeFailed(dst, "sending", err)
		return oc.err
	}
	e.stats[dst].framesOut.Add(1)
	return nil
}

// CloseSend writes the end frame to every peer and flushes the outbound
// connections: the remote shuffle barrier for this sender. With a recorder
// attached it also records one transport.send span per peer covering the
// stream's lifetime (exchange open to barrier).
func (e *Exchange) CloseSend() error {
	var first error
	for p, oc := range e.outs {
		if oc == nil {
			continue
		}
		oc.mu.Lock()
		err := oc.err
		if err == nil {
			err = writeEndFrame(oc.bw)
			if err == nil {
				err = oc.bw.Flush()
			}
			if err != nil {
				err = e.writeFailed(p, "closing send", err)
			}
			oc.err = err
		}
		oc.mu.Unlock()
		e.recordSendSpan(p, err)
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// recordSendSpan records the lifetime of one outbound stream at its barrier.
// No-op without a local recorder or trace.
func (e *Exchange) recordSendSpan(peer int, sendErr error) {
	rec := obs.RecorderFrom(e.obsCtx)
	if rec == nil {
		return
	}
	traceID, parent := obs.SpanContextFrom(e.obsCtx)
	if traceID == "" {
		return
	}
	attrs := []obs.Attr{
		obs.String("job", e.jobID),
		obs.Int("dst", int64(peer)),
		obs.Int("bytes_out", e.stats[peer].bytesOut.Load()),
		obs.Int("frames_out", e.stats[peer].framesOut.Load()),
	}
	if sendErr != nil {
		attrs = append(attrs, obs.String("error", sendErr.Error()))
	}
	rec.Record(obs.SpanRecord{
		Trace:       traceID,
		Span:        obs.NewSpanID(),
		Parent:      parent,
		Name:        "transport.send",
		StartUnixNS: e.openedAt.UnixNano(),
		DurationNS:  int64(time.Since(e.openedAt)),
		Attrs:       attrs,
	})
}

// Recv returns the next inbound frame; io.EOF once every remote peer's end
// frame has arrived. The returned slice is owned by the caller.
func (e *Exchange) Recv() ([]byte, error) {
	select {
	case frame, ok := <-e.inbox:
		if !ok {
			return nil, io.EOF
		}
		return frame, nil
	case <-e.failed:
		return nil, e.Err()
	case <-e.closedCh:
		return nil, errors.New("transport: exchange is closed")
	}
}

// Err returns the first failure of the exchange, if any.
func (e *Exchange) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// WireBytesOut returns the bytes actually written to this peer's outbound
// sockets so far.
func (e *Exchange) WireBytesOut() int64 {
	var n int64
	for p := range e.stats {
		n += e.stats[p].bytesOut.Load()
	}
	return n
}

// Close tears down every connection of the exchange and releases its job id.
// It is idempotent and safe to call while Sends or Recvs are blocked.
func (e *Exchange) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	close(e.closedCh)
	ins := append([]net.Conn(nil), e.ins...)
	outs := append([]*outConn(nil), e.outs...)
	e.mu.Unlock()

	for _, oc := range outs {
		if oc != nil {
			oc.conn.Close()
		}
	}
	for _, conn := range ins {
		if conn != nil {
			conn.Close()
		}
	}
	e.node.release(e.jobID, e)
	return nil
}

// fail records the first error and wakes every blocked Recv and Send: a past
// write deadline cuts short a Send blocked on a live peer that stopped reading
// (its own exchange failed), which would otherwise wait forever.
func (e *Exchange) fail(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err == nil {
		e.err = err
		close(e.failed)
		for _, oc := range e.outs {
			if oc != nil {
				_ = oc.conn.SetWriteDeadline(time.Now())
			}
		}
	}
}

// writeFailed fails the exchange with a PeerError naming p and returns the
// exchange's first failure, so a write cut short by fail reports its cause.
func (e *Exchange) writeFailed(p int, op string, err error) error {
	e.fail(&PeerError{Peer: p, Err: fmt.Errorf("%s: %w", op, err)})
	return e.Err()
}

// countingWriter forwards writes and adds the written byte counts to n. It
// sits directly on the socket, below the buffered writer, so the count is
// bytes that actually reached the kernel.
type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// countingReader forwards reads and counts bytes. Before attach it counts
// locally (the handshake is read before the owning exchange is known); attach
// transfers the running count into the peer's counter and routes further
// reads there. attach must not race with Read — the handshake reader has
// finished before the read loop starts.
type countingReader struct {
	r    io.Reader
	n    int64
	sink *atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if c.sink == nil {
		c.n += int64(n)
	} else {
		c.sink.Add(int64(n))
	}
	return n, err
}

func (c *countingReader) attach(sink *atomic.Int64) {
	sink.Add(c.n)
	c.sink = sink
}
