package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// testCluster starts n nodes on ephemeral localhost ports.
func testCluster(t *testing.T, n int) ([]*Node, []string) {
	t.Helper()
	nodes := make([]*Node, n)
	addrs := make([]string, n)
	for i := range nodes {
		node, err := NewNode("127.0.0.1:0", Config{})
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		t.Cleanup(func() { node.Close() })
		nodes[i] = node
		addrs[i] = node.Addr()
	}
	return nodes, addrs
}

// runExchangePeer opens the job on one node, sends one tagged frame to every
// other peer, and collects everything it receives until EOF.
func runExchangePeer(t *testing.T, node *Node, jobID string, self int, addrs []string, frames int) ([]string, *Exchange) {
	t.Helper()
	ex, err := node.OpenExchange(jobID, self, addrs)
	if err != nil {
		t.Errorf("peer %d: OpenExchange: %v", self, err)
		return nil, nil
	}
	var (
		recvd []string
		wg    sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			frame, err := ex.Recv()
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Errorf("peer %d: Recv: %v", self, err)
				return
			}
			recvd = append(recvd, string(frame))
		}
	}()
	for dst := range addrs {
		if dst == self {
			continue
		}
		for f := 0; f < frames; f++ {
			msg := fmt.Sprintf("%s:%d->%d:%d", jobID, self, dst, f)
			if err := ex.Send(dst, []byte(msg)); err != nil {
				t.Errorf("peer %d: Send: %v", self, err)
			}
		}
	}
	if err := ex.CloseSend(); err != nil {
		t.Errorf("peer %d: CloseSend: %v", self, err)
	}
	wg.Wait()
	return recvd, ex
}

func TestExchangeThreePeers(t *testing.T) {
	nodes, addrs := testCluster(t, 3)

	// Peer p sends frames(p) to each other peer, so no two peers send the
	// same number of bytes.
	frames := func(p int) int { return 50 * (p + 1) }
	recvd := make([][]string, 3)
	exs := make([]*Exchange, 3)
	var wg sync.WaitGroup
	for p := range nodes {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			recvd[p], exs[p] = runExchangePeer(t, nodes[p], "job-3peer", p, addrs, frames(p))
		}(p)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	var wantTotal, gotTotal int
	for p := range recvd {
		var want []string
		for src := range addrs {
			if src == p {
				continue
			}
			for f := 0; f < frames(src); f++ {
				want = append(want, fmt.Sprintf("job-3peer:%d->%d:%d", src, p, f))
			}
		}
		got := append([]string(nil), recvd[p]...)
		sort.Strings(got)
		sort.Strings(want)
		wantTotal += len(want)
		gotTotal += len(got)
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				t.Fatalf("peer %d: frame set mismatch:\n got %v\nwant %v", p, got, want)
			}
		}
	}
	if gotTotal != wantTotal {
		t.Fatalf("received %d frames, want %d", gotTotal, wantTotal)
	}

	// The acceptance bar: bytes counted as written must equal bytes counted
	// as read across the cluster — ShuffleBytes is real socket traffic.
	var out, in int64
	for p, ex := range exs {
		out += ex.WireBytesOut()
		in += ex.WireBytesIn()
		if ex.WireBytesOut() <= 0 {
			t.Errorf("peer %d reports no wire bytes out", p)
		}
		if self := &ex.stats[p]; self.bytesOut.Load() != 0 || self.bytesIn.Load() != 0 {
			t.Errorf("peer %d counts self traffic: %d bytes out, %d in", p, self.bytesOut.Load(), self.bytesIn.Load())
		}
	}
	if out != in {
		t.Errorf("wire bytes out %d != wire bytes in %d", out, in)
	}
	// Per peer: what p wrote is what the others read from p.
	for p, ex := range exs {
		var readFromP int64
		for q := range exs {
			if q != p {
				readFromP += exs[q].stats[p].bytesIn.Load()
			}
		}
		if ex.WireBytesOut() != readFromP {
			t.Errorf("peer %d wrote %d wire bytes, its peers read %d from it", p, ex.WireBytesOut(), readFromP)
		}
	}
	for _, ex := range exs {
		ex.Close()
	}
}

func TestExchangeConcurrentJobsIsolated(t *testing.T) {
	nodes, addrs := testCluster(t, 2)

	jobs := []string{"job-a", "job-b"}
	results := make(map[string][][]string)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, job := range jobs {
		for p := range nodes {
			wg.Add(1)
			go func(job string, p int) {
				defer wg.Done()
				got, ex := runExchangePeer(t, nodes[p], job, p, addrs, 10)
				if ex != nil {
					defer ex.Close()
				}
				mu.Lock()
				results[job] = append(results[job], got)
				mu.Unlock()
			}(job, p)
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for job, peerFrames := range results {
		for _, frames := range peerFrames {
			for _, f := range frames {
				if len(f) < len(job) || f[:len(job)] != job {
					t.Errorf("job %s received foreign frame %q", job, f)
				}
			}
		}
	}
}

func TestExchangeJobIDReuseAfterClose(t *testing.T) {
	nodes, addrs := testCluster(t, 2)
	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		for p := range nodes {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				_, ex := runExchangePeer(t, nodes[p], "job-reuse", p, addrs, 3)
				if ex != nil {
					ex.Close()
				}
			}(p)
		}
		wg.Wait()
		if t.Failed() {
			t.Fatalf("round %d failed", round)
		}
	}
}

func TestOpenExchangeDuplicateJob(t *testing.T) {
	nodes, _ := testCluster(t, 1)
	ex, err := nodes[0].OpenExchange("dup", 0, []string{nodes[0].Addr()})
	if err != nil {
		t.Fatalf("OpenExchange: %v", err)
	}
	defer ex.Close()
	if _, err := nodes[0].OpenExchange("dup", 0, []string{nodes[0].Addr()}); err == nil {
		t.Fatal("second OpenExchange with the same job id should fail")
	}
}

func TestSinglePeerExchangeIsImmediatelyDone(t *testing.T) {
	nodes, _ := testCluster(t, 1)
	ex, err := nodes[0].OpenExchange("solo", 0, []string{nodes[0].Addr()})
	if err != nil {
		t.Fatalf("OpenExchange: %v", err)
	}
	defer ex.Close()
	if err := ex.CloseSend(); err != nil {
		t.Fatalf("CloseSend: %v", err)
	}
	if _, err := ex.Recv(); err != io.EOF {
		t.Fatalf("Recv: got %v, want io.EOF", err)
	}
}

// TestHandshakeRejectsGarbage: the node drops a connection whose opening is
// not a handshake of this protocol version — garbage, or a version-4 peer,
// whose attempt number would be misread as the trace length — without an ack.
func TestHandshakeRejectsGarbage(t *testing.T) {
	nodes, addrs := testCluster(t, 1)
	_ = nodes
	v4 := appendHandshake(nil, "stale-job", 1, nil)
	v4[len(protocolMagic)] = 4
	for name, opening := range map[string][]byte{
		"http":      []byte("GET / HTTP/1.1\r\n\r\n"),
		"version 4": v4,
	} {
		conn, err := net.Dial("tcp", addrs[0])
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		if _, err := conn.Write(opening); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 16)
		if n, err := conn.Read(buf); err == nil {
			t.Errorf("%s: expected the node to drop the connection, read %d bytes", name, n)
		}
		conn.Close()
	}
}

// TestOpenExchangeCancelledWhileDialing: while its peers refuse connections,
// OpenExchangeContext keeps dialing for up to dialRetryWindow; cancelling its
// context must end the call with the context's error within 200 ms, leaving
// no goroutine and no job entry behind.
func TestOpenExchangeCancelledWhileDialing(t *testing.T) {
	nodes, _ := testCluster(t, 1)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	refusing := l.Addr().String() // nothing listens there once l is closed
	l.Close()
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		ex, err := nodes[0].OpenExchangeContext(ctx, "refused", 0, []string{nodes[0].Addr(), refusing, refusing})
		if ex != nil {
			ex.Close()
		}
		done <- err
	}()
	time.Sleep(150 * time.Millisecond) // the dialers are refused and waiting to retry
	cancel()
	cancelled := time.Now()
	select {
	case err := <-done:
		if lag := time.Since(cancelled); lag > 200*time.Millisecond {
			t.Errorf("OpenExchangeContext returned %v after the cancellation", lag)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("OpenExchangeContext returned %v, want %v", err, context.Canceled)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OpenExchangeContext still dialing 5 s after its context was cancelled")
	}
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before || jobEntries(nodes[0]) > 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("%d job entries left; goroutines %d -> %d\n%s", jobEntries(nodes[0]), before, runtime.NumGoroutine(), buf[:n])
		}
	}
}

// jobEntries returns the number of jobs node holds an entry for.
func jobEntries(node *Node) int {
	node.mu.Lock()
	defer node.mu.Unlock()
	return len(node.jobs)
}

// TestUnadoptedJobEntryIsDropped: a handshaken connection for a job that is
// never opened locally must not leak its entry in the node's jobs map.
func TestUnadoptedJobEntryIsDropped(t *testing.T) {
	node, err := NewNode("127.0.0.1:0", Config{adoptTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer node.Close()

	conn, err := net.Dial("tcp", node.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write(appendHandshake(nil, "ghost-job", 1, nil)); err != nil {
		t.Fatalf("write handshake: %v", err)
	}
	ack := make([]byte, 1)
	if _, err := io.ReadFull(conn, ack); err != nil {
		t.Fatalf("read ack: %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		node.mu.Lock()
		n := len(node.jobs)
		node.mu.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs map still holds %d entries after adopt timeout", n)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestSendToSelfRejected(t *testing.T) {
	nodes, _ := testCluster(t, 1)
	ex, err := nodes[0].OpenExchange("selfsend", 0, []string{nodes[0].Addr()})
	if err != nil {
		t.Fatalf("OpenExchange: %v", err)
	}
	defer ex.Close()
	if err := ex.Send(0, []byte("x")); err == nil {
		t.Fatal("Send to self should be rejected")
	}
}

// TestAbruptPeerDisconnectFailsLivePeers is the fail-stop contract under a
// mid-stream crash: one peer tears its connections down without sending end
// frames while the others are still streaming. Every live peer must surface
// an error from its exchange (no silent truncation), none may wedge, and the
// node goroutines must all wind down (no leaks).
func TestAbruptPeerDisconnectFailsLivePeers(t *testing.T) {
	before := runtime.NumGoroutine()
	nodes, addrs := testCluster(t, 3)

	exs := make([]*Exchange, 3)
	for p, node := range nodes {
		ex, err := node.OpenExchange("job-crash", p, addrs)
		if err != nil {
			t.Fatalf("peer %d: OpenExchange: %v", p, err)
		}
		exs[p] = ex
	}

	// Peers 0 and 1 stream continuously and drain their inboxes; peer 2
	// receives one frame and then dies abruptly (Close sends no end frames).
	started := make(chan struct{}, 2)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for _, p := range []int{0, 1} {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			recvErr := make(chan error, 1)
			go func() {
				for {
					if _, err := exs[p].Recv(); err != nil {
						if err == io.EOF {
							recvErr <- nil
						} else {
							recvErr <- err
						}
						return
					}
				}
			}()
			payload := make([]byte, 4096)
			var sendErr error
			started <- struct{}{}
			for i := 0; i < 100000; i++ {
				for dst := range exs {
					if dst == p {
						continue
					}
					if err := exs[p].Send(dst, payload); err != nil {
						sendErr = err
						break
					}
				}
				if sendErr != nil {
					break
				}
			}
			// Whether or not Send already failed, the receive side must
			// observe the missing end frame of the dead peer as an error.
			if sendErr == nil {
				_ = exs[p].CloseSend()
			}
			err := <-recvErr
			if sendErr == nil && err == nil {
				errs[p] = fmt.Errorf("peer %d: neither Send nor Recv surfaced the dead peer", p)
				return
			}
			errs[p] = nil
		}(p)
	}
	<-started
	<-started
	// Let peer 2 adopt some traffic, then kill it abruptly.
	if _, err := exs[2].Recv(); err != nil {
		t.Fatalf("peer 2: first Recv: %v", err)
	}
	exs[2].Close()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("live peers did not observe the abrupt disconnect within 30s (wedged exchange?)")
	}
	for p, err := range errs {
		if err != nil {
			t.Error(err)
		}
		_ = p
	}

	for _, ex := range exs {
		ex.Close()
	}
	for _, node := range nodes {
		node.Close()
	}
	// All read loops, accept loops and handshake handlers must wind down.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after abrupt disconnect: %d -> %d\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestZombieAttemptIsolated: a retried job opens attempt B under a fresh id
// once attempt A has closed. A zombie sender of A that dials in afterwards is
// acked and parked, but none of its frames reach B, and the node drops its
// connection after the adopt timeout without leaving a goroutine behind.
func TestZombieAttemptIsolated(t *testing.T) {
	const adopt = 300 * time.Millisecond
	nodes := make([]*Node, 2)
	addrs := make([]string, 2)
	for i := range nodes {
		node, err := NewNode("127.0.0.1:0", Config{adoptTimeout: adopt})
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		defer node.Close()
		nodes[i], addrs[i] = node, node.Addr()
	}
	before := runtime.NumGoroutine()

	// runAttempt opens id on both nodes, has each peer send 10 frames tagged
	// with id to the other, and returns what each peer received.
	runAttempt := func(id string) [][]string {
		got := make([][]string, 2)
		var wg sync.WaitGroup
		for p := range nodes {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				frames, ex := runExchangePeer(t, nodes[p], id, p, addrs, 10)
				if ex != nil {
					ex.Close()
				}
				got[p] = frames
			}(p)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		return got
	}
	runAttempt("attempt-a")

	// The zombie dials node 1 as peer 0 of the closed attempt A.
	zombie, err := net.Dial("tcp", addrs[1])
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer zombie.Close()
	parked := time.Now() // the node's adopt timer starts later, at its ack
	if _, err := zombie.Write(appendHandshake(nil, "attempt-a", 0, nil)); err != nil {
		t.Fatalf("write handshake: %v", err)
	}
	if _, err := io.ReadFull(zombie, make([]byte, 1)); err != nil {
		t.Fatalf("read ack: %v", err)
	}
	var frames []byte
	for f := 0; f < 10; f++ {
		frames = append(frames, frameData, 6)
		frames = append(frames, "zombie"...)
	}
	if _, err := zombie.Write(append(frames, frameEnd)); err != nil {
		t.Fatalf("zombie write: %v", err)
	}

	for p, recvd := range runAttempt("attempt-b") {
		if len(recvd) != 10 {
			t.Errorf("peer %d of attempt B received %d frames, want 10", p, len(recvd))
		}
		for _, f := range recvd {
			if !strings.HasPrefix(f, "attempt-b:") {
				t.Errorf("peer %d of attempt B received foreign frame %q", p, f)
			}
		}
	}

	// The node closes the connection with the zombie's frames unread, so the
	// read sees EOF or a reset; only the deadline means it is still open.
	_ = zombie.SetReadDeadline(time.Now().Add(10 * time.Second))
	var timeout net.Error
	if _, err := zombie.Read(make([]byte, 1)); err == nil || errors.As(err, &timeout) && timeout.Timeout() {
		t.Fatalf("zombie connection: read = %v, want it closed by the node", err)
	}
	if waited := time.Since(parked); waited < adopt {
		t.Errorf("zombie connection dropped after %v, before the %v adopt timeout", waited, adopt)
	}

	// The handler closes the zombie's connection before it drops the entry,
	// so both settle shortly after the read above.
	entries := func() (n int) {
		for _, node := range nodes {
			node.mu.Lock()
			n += len(node.jobs)
			node.mu.Unlock()
		}
		return n
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before || entries() > 0 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("%d job entries left; goroutines %d -> %d\n%s", entries(), before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPeerErrorIdentifiesDeadPeer: when a peer dies abruptly, the survivors'
// exchange error must be a *PeerError naming it.
func TestPeerErrorIdentifiesDeadPeer(t *testing.T) {
	nodes, addrs := testCluster(t, 3)
	exs := make([]*Exchange, 3)
	for p, node := range nodes {
		ex, err := node.OpenExchange("job-peererr", p, addrs)
		if err != nil {
			t.Fatalf("peer %d: OpenExchange: %v", p, err)
		}
		exs[p] = ex
	}
	defer exs[0].Close()
	defer exs[1].Close()

	// Peer 2 dies without end frames; peer 0 blocks in Recv until the broken
	// connection surfaces.
	exs[2].Close()
	_ = exs[0].CloseSend()
	_ = exs[1].CloseSend()
	for {
		_, err := exs[0].Recv()
		if err == io.EOF {
			t.Fatal("Recv reached EOF although peer 2 never sent an end frame")
		}
		if err != nil {
			var perr *PeerError
			if !errors.As(err, &perr) {
				t.Fatalf("Recv error %v (%T) is not a *PeerError", err, err)
			}
			if perr.Peer != 2 {
				t.Fatalf("PeerError names peer %d, want 2", perr.Peer)
			}
			return
		}
	}
}

// WireBytesIn returns the bytes actually read from e's inbound sockets.
func (e *Exchange) WireBytesIn() int64 {
	var n int64
	for p := range e.stats {
		n += e.stats[p].bytesIn.Load()
	}
	return n
}
