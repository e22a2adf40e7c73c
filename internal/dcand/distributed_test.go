package dcand_test

import (
	"errors"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"

	"seqmine/internal/dcand"
	"seqmine/internal/dict"
	"seqmine/internal/fst"
	"seqmine/internal/mapreduce"
	"seqmine/internal/miner"
	"seqmine/internal/nfa"
	"seqmine/internal/paperex"
	"seqmine/internal/transport"
)

// TestDCandMinePeerMatchesMine runs D-CAND across three processes' worth of
// transport nodes on localhost — with a tiny spill threshold so the NFA
// shuffle exercises the on-disk path — and checks that the union of the
// per-peer pattern sets is byte-identical to the in-process engine's output.
func TestDCandMinePeerMatchesMine(t *testing.T) {
	d := paperex.Dict()
	f := fst.MustCompile(paperex.PatternExpression, d)
	db := paperex.DB(d)
	want, _ := mine(t, f, db, paperex.Sigma, dcand.DefaultOptions(), mapreduce.Config{})

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

	cfg := mapreduce.Config{MapWorkers: 2, ReduceWorkers: 2,
		Shuffle: mapreduce.ShuffleConfig{SpillThreshold: 1, SpillTmpDir: t.TempDir()}}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		union    []miner.Pattern
		spilled  int64
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
			bx, err := nodes[p].OpenExchange("dcand-test", p, addrs)
			if err == nil {
				defer bx.Close()
				var (
					local []miner.Pattern
					m     mapreduce.Metrics
				)
				local, m, err = dcand.Mine(f, split, paperex.Sigma, dcand.DefaultOptions(), cfg, bx)
				mu.Lock()
				union = append(union, local...)
				spilled += m.SpilledBytes
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
		t.Errorf("distributed D-CAND = %v, want %v", miner.PatternsToMap(d, union), miner.PatternsToMap(d, want))
	}
	if spilled <= 0 {
		t.Errorf("expected spilling at a 1-byte threshold, got %d spilled bytes", spilled)
	}
}

// tornPeer is a two-peer fabric whose remote side delivers one prepared frame
// and hangs up.
type tornPeer struct {
	frames [][]byte
}

func (p *tornPeer) NumPeers() int          { return 2 }
func (p *tornPeer) Self() int              { return 0 }
func (p *tornPeer) Send(int, []byte) error { return nil }
func (p *tornPeer) CloseSend() error       { return nil }
func (p *tornPeer) WireBytesOut() int64    { return 0 }
func (p *tornPeer) Recv() ([]byte, error) {
	if len(p.frames) == 0 {
		return nil, io.EOF
	}
	frame := p.frames[0]
	p.frames = p.frames[1:]
	return frame, nil
}

// TestDCandMinePeerRejectsCorruptNFA: a well-formed shuffle frame that
// carries a torn or cyclic NFA must fail the job with an error naming the
// pivot — the parent skipped such records and returned undercounted supports.
func TestDCandMinePeerRejectsCorruptNFA(t *testing.T) {
	d := paperex.Dict()
	f := fst.MustCompile(paperex.PatternExpression, d)
	db := paperex.DB(d)
	for name, c := range map[string]struct {
		nfa    []byte
		cyclic bool
	}{
		"torn":   {nfa: []byte{0x00, 0x01}}, // a label of one item, cut before the item
		"cyclic": {nfa: []byte{0x00, 0x01, 0x01, 0x02, 0x01, 0x01, 0x00}, cyclic: true},
	} {
		// pivot 3, one value: weight 1, length-prefixed NFA bytes.
		frame := append([]byte{0x03, 0x01, 0x01, byte(len(c.nfa))}, c.nfa...)
		for _, shuffle := range []mapreduce.ShuffleConfig{{}, {SpillThreshold: 1, SpillTmpDir: t.TempDir()}} {
			cfg := mapreduce.Config{MapWorkers: 2, ReduceWorkers: 2, Shuffle: shuffle}
			got, _, err := dcand.Mine(f, db, paperex.Sigma, dcand.DefaultOptions(), cfg, &tornPeer{frames: [][]byte{frame}})
			if err == nil {
				t.Fatalf("%s: Mine accepted the frame and returned %v", name, got)
			}
			if got != nil || !strings.Contains(err.Error(), "key 3") || errors.Is(err, nfa.ErrCyclic) != c.cyclic {
				t.Errorf("%s: Mine = %v, %v; want no patterns and an error naming key 3 (ErrCyclic: %v)",
					name, got, err, c.cyclic)
			}
		}
	}
}
