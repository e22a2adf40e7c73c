package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"seqmine/internal/plan"
)

// fillDistinct sets every leaf field of v (recursing through embedded and
// nested structs) to a distinct non-zero value.
func fillDistinct(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		*n++
		switch f.Kind() {
		case reflect.Struct:
			fillDistinct(t, f, n)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(1000 + *n))
		case reflect.String:
			f.SetString(fmt.Sprintf("v%d", *n))
		default:
			t.Fatalf("plan field %s has kind %s: teach fillDistinct about it", v.Type().Field(i).Name, f.Kind())
		}
	}
}

// TestPlanSurvivesJobSpec is the no-field-left-behind test of the query plan:
// every field of plan.Plan, set to a distinct non-zero value, must arrive on
// the worker side of the JobSpec wire and in the worker's engine
// configuration unchanged. Only the two process-local fields stay behind by
// design (Workers: a worker sizes its own engine; SpillTmpDir: a worker
// spills into its own directory). A field added to the plan that does not
// serialize fails here instead of silently stopping at the coordinator.
func TestPlanSurvivesJobSpec(t *testing.T) {
	var in plan.Plan
	n := 0
	fillDistinct(t, reflect.ValueOf(&in).Elem(), &n)

	body, err := json.Marshal(JobSpec{JobID: "job", Plan: in})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := decodeSpec(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("worker-side decode of %s: %v", body, err)
	}

	want := in
	want.Workers = 0
	want.SpillTmpDir = ""
	if spec.Plan != want {
		t.Errorf("plan after the wire = %+v\nwant %+v", spec.Plan, want)
	}

	w := &Worker{SpillDir: "/worker/spill"}
	cfg := w.engineConfig(context.Background(), spec.Plan)
	wantShuffle := in.ShuffleConfig
	wantShuffle.SpillTmpDir = "/worker/spill"
	if cfg.Shuffle != wantShuffle {
		t.Errorf("worker engine shuffle config = %+v, want %+v", cfg.Shuffle, wantShuffle)
	}
	if cfg.Workers != 0 {
		t.Errorf("worker engine parallelism = %d, want the worker's own default (0)", cfg.Workers)
	}
}
