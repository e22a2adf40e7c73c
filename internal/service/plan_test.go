package service

import (
	"encoding/json"
	"testing"

	"seqmine/internal/mapreduce"
	"seqmine/internal/plan"
)

// TestMineRequestGolden pins the public wire format: a POST /mine body using
// every field name the API has ever documented must keep decoding to the same
// request and the same query plan. (The decode is lenient — unknown fields are
// ignored — unlike the internal coordinator→worker job spec. That covers the
// retired knobs "send_buffer_max_bytes" (the adaptive-buffer bound),
// "prefilter", "shards" (the two-phase executor's partition count),
// "speculative_after_ms" (speculative attempts), "task_partitions" (tasks
// per cluster job) and "compress_spill" (DEFLATE spill segments): old clients
// may keep sending them, and they no longer reach the plan.)
func TestMineRequestGolden(t *testing.T) {
	const body = `{
		"dataset": "nyt", "pattern": "(.){2,4}", "sigma": 100,
		"algorithm": "DCand", "workers": 3, "shards": 5,
		"timeout_ms": 1500, "limit": 10,
		"cluster_workers": ["http://w0", "http://w1"], "distributed": true,
		"spill_threshold_bytes": 4096, "send_buffer_bytes": 256,
		"send_buffer_max_bytes": 1024, "compress_spill": true,
		"task_retries": -1, "speculative_after_ms": 250, "task_partitions": 7,
		"prefilter": true, "some_future_field": 1
	}`
	var req MineRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	if req.Dataset != "nyt" || req.Pattern != "(.){2,4}" || req.Sigma != 100 ||
		req.TimeoutMS != 1500 || req.Limit != 10 || !req.Distributed ||
		len(req.ClusterWorkers) != 2 || req.ClusterWorkers[1] != "http://w1" {
		t.Errorf("request envelope decoded to %+v", req)
	}
	got, err := req.toPlan()
	if err != nil {
		t.Fatal(err)
	}
	want := plan.Plan{
		Algorithm: plan.AlgoDCand,
		Workers:   3,
		Knobs: plan.Knobs{
			ShuffleConfig: mapreduce.ShuffleConfig{
				SpillThreshold:  4096,
				SendBufferBytes: 256,
			},
			TaskRetries: -1,
		},
	}
	if got != want {
		t.Errorf("plan = %+v\nwant %+v", got, want)
	}

	// What a minimal client marshals is unchanged byte for byte.
	out, err := json.Marshal(MineRequest{Dataset: "d", Pattern: "(.)", Sigma: 2, Algorithm: "dfs", Workers: 2, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"dataset":"d","pattern":"(.)","sigma":2,"algorithm":"dfs","workers":2,"shards":2}`; string(out) != want {
		t.Errorf("marshalled request = %s\nwant %s", out, want)
	}

	if _, err := (MineRequest{Algorithm: "quantum"}).toPlan(); err == nil {
		t.Error("an unknown algorithm must be rejected")
	}
}
