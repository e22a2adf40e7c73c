package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
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
		node, err := NewNode("127.0.0.1:0", Config{
			HandshakeTimeout: 5 * time.Second,
			DialRetryWindow:  5 * time.Second,
			AdoptTimeout:     10 * time.Second,
			OpenTimeout:      10 * time.Second,
		})
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

	const frames = 50
	recvd := make([][]string, 3)
	exs := make([]*Exchange, 3)
	var wg sync.WaitGroup
	for p := range nodes {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			recvd[p], exs[p] = runExchangePeer(t, nodes[p], "job-3peer", p, addrs, frames)
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
			for f := 0; f < frames; f++ {
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
		stats := ex.Stats()
		if stats[p].BytesOut != 0 || stats[p].BytesIn != 0 {
			t.Errorf("peer %d counts self traffic: %+v", p, stats[p])
		}
	}
	if out != in {
		t.Errorf("wire bytes out %d != wire bytes in %d", out, in)
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

func TestHandshakeRejectsGarbage(t *testing.T) {
	nodes, addrs := testCluster(t, 1)
	_ = nodes
	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 16)
	if n, err := conn.Read(buf); err == nil {
		t.Fatalf("expected the node to drop a garbage connection, read %d bytes", n)
	}
}

// TestUnadoptedJobEntryIsDropped: a handshaken connection for a job that is
// never opened locally must not leak its entry in the node's jobs map.
func TestUnadoptedJobEntryIsDropped(t *testing.T) {
	node, err := NewNode("127.0.0.1:0", Config{AdoptTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer node.Close()

	conn, err := net.Dial("tcp", node.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write(appendHandshake(nil, "ghost-job", 1, 0, nil)); err != nil {
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

// TestExchangeEpochsIsolated runs two epochs of the same job id concurrently
// (a retry opening while a zombie of the failed attempt still runs): frames
// must never cross epochs.
func TestExchangeEpochsIsolated(t *testing.T) {
	nodes, addrs := testCluster(t, 2)

	// Open the epochs in scheduler order — the failed attempt (epoch 0)
	// exists on every worker before its retry (epoch 1) opens; both then run
	// concurrently.
	exs := make(map[[2]int]*Exchange)
	for _, epoch := range []int{0, 1} {
		var openWG sync.WaitGroup
		var mu0 sync.Mutex
		for p := range nodes {
			openWG.Add(1)
			go func(epoch, p int) {
				defer openWG.Done()
				ex, err := nodes[p].OpenExchangeContext(context.Background(), "job-epochs", epoch, p, addrs)
				if err != nil {
					t.Errorf("epoch %d peer %d: OpenExchangeContext: %v", epoch, p, err)
					return
				}
				mu0.Lock()
				exs[[2]int{epoch, p}] = ex
				mu0.Unlock()
			}(epoch, p)
		}
		openWG.Wait()
		if t.Failed() {
			t.FailNow()
		}
	}

	results := make(map[int][][]string)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, epoch := range []int{0, 1} {
		for p := range nodes {
			wg.Add(1)
			go func(epoch, p int) {
				defer wg.Done()
				ex := exs[[2]int{epoch, p}]
				defer ex.Close()
				recvErr := make(chan []string, 1)
				go func() {
					var got []string
					for {
						frame, err := ex.Recv()
						if err != nil {
							recvErr <- got
							return
						}
						got = append(got, string(frame))
					}
				}()
				for f := 0; f < 10; f++ {
					msg := fmt.Sprintf("e%d:%d", epoch, f)
					if err := ex.Send(1-p, []byte(msg)); err != nil {
						t.Errorf("epoch %d peer %d: Send: %v", epoch, p, err)
					}
				}
				if err := ex.CloseSend(); err != nil {
					t.Errorf("epoch %d peer %d: CloseSend: %v", epoch, p, err)
				}
				got := <-recvErr
				mu.Lock()
				results[epoch] = append(results[epoch], got)
				mu.Unlock()
			}(epoch, p)
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for epoch, peerFrames := range results {
		want := fmt.Sprintf("e%d:", epoch)
		n := 0
		for _, frames := range peerFrames {
			for _, f := range frames {
				n++
				if f[:len(want)] != want {
					t.Errorf("epoch %d received foreign frame %q", epoch, f)
				}
			}
		}
		if n != 20 {
			t.Errorf("epoch %d received %d frames, want 20", epoch, n)
		}
	}
}

// TestStaleEpochRejected: once a newer epoch of a job is open on a node,
// opening (or connecting as) an older epoch must be refused.
func TestStaleEpochRejected(t *testing.T) {
	nodes, addrs := testCluster(t, 2)

	// Open epoch 2 on both peers and complete the handshake mesh.
	exs := make([]*Exchange, 2)
	var wg sync.WaitGroup
	for p := range nodes {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			ex, err := nodes[p].OpenExchangeContext(context.Background(), "job-stale", 2, p, addrs)
			if err != nil {
				t.Errorf("peer %d: OpenExchangeContext: %v", p, err)
				return
			}
			exs[p] = ex
		}(p)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	defer exs[0].Close()
	defer exs[1].Close()

	// A local open of an older epoch fails immediately.
	if _, err := nodes[0].OpenExchangeContext(context.Background(), "job-stale", 1, 0, addrs); err == nil {
		t.Fatal("opening a stale epoch should fail")
	}

	// A zombie sender handshaking with an older epoch is cut off before the
	// ack — the acceptor acks only a connection it has bound to an attempt —
	// so the zombie's own OpenExchange fails in the dial.
	conn, err := net.Dial("tcp", addrs[1])
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write(appendHandshake(nil, "job-stale", 0, 1, nil)); err != nil {
		t.Fatalf("write handshake: %v", err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("stale-epoch connection: read = %v, want EOF without an ack", err)
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
