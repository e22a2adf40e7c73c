package dseq_test

import (
	"os"
	"reflect"
	"sync"
	"testing"

	"seqmine/internal/dict"
	"seqmine/internal/dseq"
	"seqmine/internal/fst"
	"seqmine/internal/mapreduce"
	"seqmine/internal/miner"
	"seqmine/internal/paperex"
	"seqmine/internal/transport"
)

// TestMain runs every test of the package — the distributed, spilling and
// streaming suites included — with lent reduce groups poisoned on release
// (mapreduce.PoisonOnRelease), so a D-SEQ reducer that kept a lent value would
// fail its oracle instead of silently reading a later group's data.
func TestMain(m *testing.M) {
	mapreduce.PoisonOnRelease(true)
	os.Exit(m.Run())
}

// TestDSeqMinePeerMatchesMine runs D-SEQ across three processes' worth of
// transport nodes on localhost and checks that the union of the per-peer
// pattern sets is byte-identical to the in-process engine's output.
func TestDSeqMinePeerMatchesMine(t *testing.T) {
	d := paperex.Dict()
	f := fst.MustCompile(paperex.PatternExpression, d)
	db := paperex.DB(d)
	want, _ := mine(t, f, db, paperex.Sigma, dseq.DefaultOptions(), mapreduce.Config{})

	const npeers = 3
	nodes := make([]*transport.Node, npeers)
	addrs := make([]string, npeers)
	for i := range nodes {
		node, err := transport.NewNode("127.0.0.1:0", transport.Config{})
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		defer node.Close()
		nodes[i] = node
		addrs[i] = node.Addr()
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		union    []miner.Pattern
		wireOut  int64
		firstErr error
	)
	for p := 0; p < npeers; p++ {
		var split [][]dict.ItemID
		for i := p; i < len(db); i += npeers {
			split = append(split, db[i])
		}
		wg.Add(1)
		go func(p int, split [][]dict.ItemID) {
			defer wg.Done()
			bx, err := nodes[p].OpenExchange("dseq-test", p, addrs)
			if err == nil {
				defer bx.Close()
				var (
					local []miner.Pattern
					m     mapreduce.Metrics
				)
				local, m, err = dseq.Mine(f, split, paperex.Sigma, dseq.DefaultOptions(), mapreduce.Config{Workers: 2}, bx)
				mu.Lock()
				union = append(union, local...)
				wireOut += m.ShuffleBytes
				if !m.RemoteShuffle {
					t.Errorf("peer %d: metrics should be marked RemoteShuffle", p)
				}
				mu.Unlock()
			}
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(p, split)
	}
	wg.Wait()
	if firstErr != nil {
		t.Fatalf("distributed run: %v", firstErr)
	}
	miner.SortPatterns(union)
	if !reflect.DeepEqual(miner.PatternsToMap(d, union), miner.PatternsToMap(d, want)) {
		t.Errorf("distributed D-SEQ = %v, want %v", miner.PatternsToMap(d, union), miner.PatternsToMap(d, want))
	}
	if wireOut <= 0 {
		t.Errorf("expected positive wire ShuffleBytes, got %d", wireOut)
	}
}
