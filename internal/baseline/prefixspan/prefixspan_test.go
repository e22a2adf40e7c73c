package prefixspan_test

import (
	"math/rand"
	"reflect"
	"testing"

	"seqmine/internal/baseline/prefixspan"
	"seqmine/internal/dict"
	"seqmine/internal/dseq"
	"seqmine/internal/fst"
	"seqmine/internal/mapreduce"
	"seqmine/internal/miner"
	"seqmine/internal/paperex"
)

func TestPrefixSpanSmallExample(t *testing.T) {
	// Classic example: three sequences over items encoded by a small dict.
	b := dict.NewBuilder()
	raw := [][]string{
		{"a", "b", "c"},
		{"a", "c"},
		{"b", "c"},
	}
	for _, s := range raw {
		b.AddSequence(s)
	}
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var db [][]dict.ItemID
	for _, s := range raw {
		enc, _ := d.EncodeSequence(s)
		db = append(db, enc)
	}
	got := miner.PatternsToMap(d, prefixspan.Mine(d, db, 2, prefixspan.Options{MaxLength: 3}))
	want := map[string]int64{
		"a": 2, "b": 2, "c": 3,
		"a c": 2, "b c": 2,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("PrefixSpan = %v, want %v", got, want)
	}
}

func TestPrefixSpanMaxLength(t *testing.T) {
	b := dict.NewBuilder()
	raw := [][]string{{"a", "b", "c"}, {"a", "b", "c"}}
	for _, s := range raw {
		b.AddSequence(s)
	}
	d, _ := b.Build()
	var db [][]dict.ItemID
	for _, s := range raw {
		enc, _ := d.EncodeSequence(s)
		db = append(db, enc)
	}
	got := prefixspan.Mine(d, db, 2, prefixspan.Options{MaxLength: 2})
	for _, p := range got {
		if len(p.Items) > 2 {
			t.Errorf("pattern %v exceeds the maximum length", d.DecodeString(p.Items))
		}
	}
	if len(got) != 6 { // a, b, c, ab, ac, bc
		t.Errorf("expected 6 patterns, got %d: %v", len(got), miner.PatternsToMap(d, got))
	}
}

// TestPrefixSpanMatchesDSeq cross-validates PrefixSpan against D-SEQ with the
// equivalent T1 pattern expression on random databases.
func TestPrefixSpanMatchesDSeq(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	cfg := mapreduce.Config{Workers: 2}
	for trial := 0; trial < 4; trial++ {
		d, db := paperex.RandomDatabase(rng, 20, 5)
		f := fst.MustCompile("[.*(.)]{1,3}.*", d) // T1 with lambda = 3
		for _, sigma := range []int64{2, 3} {
			wantPatterns, _, err := dseq.Mine(f, db, sigma, dseq.DefaultOptions(), cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := miner.PatternsToMap(d, wantPatterns)
			for _, workers := range []int{1, 4} {
				got := miner.PatternsToMap(d, prefixspan.Mine(d, db, sigma, prefixspan.Options{MaxLength: 3, Workers: workers}))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d sigma %d workers %d: PrefixSpan %v != D-SEQ %v", trial, sigma, workers, got, want)
				}
			}
		}
	}
}

func TestPrefixSpanEmpty(t *testing.T) {
	d := paperex.Dict()
	if got := prefixspan.Mine(d, nil, 1, prefixspan.Options{}); len(got) != 0 {
		t.Errorf("empty database should mine nothing, got %v", got)
	}
}
