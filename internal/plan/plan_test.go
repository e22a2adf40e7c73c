package plan

import (
	"context"
	"flag"
	"io"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"seqmine/internal/mapreduce"
)

func knobs(spill, send int64, retries int) Knobs {
	return Knobs{
		ShuffleConfig: mapreduce.ShuffleConfig{SpillThreshold: spill, SendBufferBytes: send},
		TaskRetries:   retries,
	}
}

// TestMerge is the one table of the precedence rule (query > daemon default >
// built-in): a set value wins, zero inherits, negative stays negative — which
// every consumer reads as "off".
func TestMerge(t *testing.T) {
	daemon := knobs(4096, 256, 5)
	daemon.SpillTmpDir = "/daemon/spill"

	cases := []struct {
		name            string
		query, defaults Knobs
		want            Knobs
		spills, streams bool
		retries         int
	}{
		{name: "nothing set anywhere: in memory, barrier, built-in retry budget",
			want: Knobs{}, retries: DefaultTaskRetries},
		{name: "zero inherits every daemon default",
			defaults: daemon, want: daemon,
			spills: true, streams: true, retries: 5},
		{name: "query value wins",
			query: knobs(99, 77, 1), defaults: daemon,
			want:   withDir(knobs(99, 77, 1), "/daemon/spill"),
			spills: true, streams: true, retries: 1},
		{name: "negative turns spill, streaming and retries off",
			query: knobs(-1, -1, -1), defaults: daemon,
			want:    withDir(knobs(-1, -1, -1), "/daemon/spill"),
			retries: 0},
		{name: "the query's own spill directory wins",
			query: withDir(Knobs{}, "/query"), defaults: daemon,
			want:   withDir(daemon, "/query"),
			spills: true, streams: true, retries: 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.query.Merge(tc.defaults)
			if got != tc.want {
				t.Errorf("Merge = %+v\nwant    %+v", got, tc.want)
			}
			if again := got.Merge(tc.defaults); again != got {
				t.Errorf("Merge is not idempotent: %+v then %+v", got, again)
			}
			if got.Enabled() != tc.spills || got.Streaming() != tc.streams {
				t.Errorf("spills/streams = %v/%v, want %v/%v", got.Enabled(), got.Streaming(), tc.spills, tc.streams)
			}
			if got.RetryBudget() != tc.retries {
				t.Errorf("RetryBudget = %d, want %d", got.RetryBudget(), tc.retries)
			}
		})
	}
}

func withDir(k Knobs, dir string) Knobs {
	k.SpillTmpDir = dir
	return k
}

func TestParseAlgorithm(t *testing.T) {
	for in, want := range map[string]Algorithm{"": AlgoDSeq, "DFS": AlgoDFS, "dseq": AlgoDSeq, "DCand": AlgoDCand} {
		if got, err := ParseAlgorithm(in); err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	// DESQ-COUNT and the NAIVE baselines are not served: they are refused
	// like any unknown name, and the error lists what is accepted.
	for _, in := range []string{"quantum", "count", "naive", "SemiNaive"} {
		if _, err := ParseAlgorithm(in); err == nil || !strings.Contains(err.Error(), "(accepted: dfs, dseq, dcand)") {
			t.Errorf("ParseAlgorithm(%q) = %v; want an error naming dfs, dseq, dcand", in, err)
		}
	}
	if !slices.Equal(Algorithms, []Algorithm{AlgoDFS, AlgoDSeq, AlgoDCand}) {
		t.Errorf("Algorithms = %v, want [dfs dseq dcand]", Algorithms)
	}
}

// TestClustered: D-SEQ and D-CAND run on a worker cluster, nothing else does,
// and the empty name is not resolved to the default by the predicate.
func TestClustered(t *testing.T) {
	for _, a := range []Algorithm{"", AlgoDFS, "count", AlgoDSeq, AlgoDCand, "naive", "seminaive", "bogus"} {
		if got, want := a.Clustered(), a == AlgoDSeq || a == AlgoDCand; got != want {
			t.Errorf("%q.Clustered() = %v, want %v", a, got, want)
		}
	}
}

// TestEngine: the plan's worker count sizes both engine phases and its
// shuffle bounds pass through verbatim.
func TestEngine(t *testing.T) {
	p := Plan{Workers: 3, Knobs: knobs(4096, 256, 1)}
	ctx := context.Background()
	cfg := p.Engine(ctx, nil)
	if cfg.Workers != 3 || cfg.Shuffle != p.ShuffleConfig || cfg.Context != ctx {
		t.Errorf("Engine = %+v, want 3 map and reduce workers and the plan's shuffle bounds", cfg)
	}
}

// TestBindFlags parses one value per flag and checks each lands in its knob,
// and that the unparsed defaults are the zero Knobs (so a CLI that sets
// nothing inherits everything).
func TestBindFlags(t *testing.T) {
	var k Knobs
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	k.BindFlags(fs)
	if k != (Knobs{}) {
		t.Errorf("flag defaults = %+v, want the zero Knobs", k)
	}
	err := fs.Parse([]string{"-spill-threshold", "4096", "-spill-dir", "/tmp/s",
		"-send-buffer", "256", "-task-retries", "-1"})
	if err != nil {
		t.Fatal(err)
	}
	want := Knobs{
		ShuffleConfig: mapreduce.ShuffleConfig{SpillThreshold: 4096, SpillTmpDir: "/tmp/s",
			SendBufferBytes: 256},
		TaskRetries: -1,
	}
	if k != want {
		t.Errorf("parsed knobs = %+v\nwant %+v", k, want)
	}
	// Retired knobs: all three CLIs bind exactly these flags, so they all
	// reject the old names.
	for _, retired := range []string{"-prefilter", "-send-buffer-max", "-speculative-after", "-task-partitions", "-compress-spill"} {
		if err := fs.Parse([]string{retired}); err == nil {
			t.Errorf("the retired flag %s must be rejected", retired)
		}
	}
}

// jsonFields lists the JSON names the type serializes under, recursing
// through embedded structs; fields tagged "-" are skipped.
func jsonFields(t reflect.Type) []string {
	var names []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Anonymous {
			names = append(names, jsonFields(f.Type)...)
			continue
		}
		if name, _, _ := strings.Cut(f.Tag.Get("json"), ","); name != "-" {
			names = append(names, name)
		}
	}
	return names
}

// TestREADMEQueryPlanTable keeps README's one knob table in step with the
// one declaration: every flag BindFlags declares and every JSON field of
// Plan must have a row, and a row naming a flag or field that no longer
// exists fails. Rows for flags a single CLI declares itself (-algorithm,
// -workers) pass through their HTTP field.
func TestREADMEQueryPlanTable(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(readme), "<!-- query-plan-table:begin -->")
	table, _, ok2 := strings.Cut(rest, "<!-- query-plan-table:end -->")
	if !ok || !ok2 {
		t.Fatal("README.md lacks the query-plan-table markers")
	}

	flags := map[string]bool{}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	new(Knobs).BindFlags(fs)
	fs.VisitAll(func(f *flag.Flag) { flags["-"+f.Name] = true })
	fields := map[string]bool{"workers": true} // Plan.Workers travels as POST /mine "workers" only
	for _, name := range jsonFields(reflect.TypeOf(Plan{})) {
		fields[name] = true
	}

	code := regexp.MustCompile("`(-?[a-z_-]+)")
	seen := map[string]bool{}
	for _, row := range strings.Split(strings.TrimSpace(table), "\n")[2:] { // skip header and rule
		cols := strings.Split(row, "|")
		if len(cols) < 4 {
			t.Errorf("malformed row %q", row)
			continue
		}
		flagCol, fieldCol := code.FindStringSubmatch(cols[1]), code.FindStringSubmatch(cols[2])
		if flagCol == nil && fieldCol == nil {
			t.Errorf("row names neither a flag nor a field: %q", row)
		}
		if fieldCol != nil {
			if !fields[fieldCol[1]] {
				t.Errorf("stale row: %q is not a field of the query plan", fieldCol[1])
			}
			seen[fieldCol[1]] = true
		}
		if flagCol != nil {
			if !flags[flagCol[1]] && fieldCol == nil {
				t.Errorf("stale row: %q is not a flag BindFlags declares", flagCol[1])
			}
			seen[flagCol[1]] = true
		}
	}
	for name := range flags {
		if !seen[name] {
			t.Errorf("README table has no row for flag %s", name)
		}
	}
	for name := range fields {
		if !seen[name] {
			t.Errorf("README table has no row for field %q", name)
		}
	}
}
