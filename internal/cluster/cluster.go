// Package cluster fans a D-SEQ or D-CAND mining job out across worker
// processes with a fault-tolerant gang scheduler. The control plane is HTTP:
// the Coordinator pushes the input database once per worker into a
// content-addressed dataset store (job specs then reference a dataset id
// instead of inlining sequences) and drives attempts of the job, one at a
// time, each over a gang of the live workers: gang member k mines the input
// sequences i with i mod (gang size) == k. A heartbeat/liveness loop watches
// the gang — a worker that dies or stalls mid-shuffle fails only its attempt,
// which the scheduler retries on the surviving workers under a fresh attempt
// id. Only the successful attempt's results are merged; the fresh id makes
// zombie attempts harmless (internal/transport delivers a connection only to
// the exchange its handshake names, and no open exchange names a dead
// attempt's id).
// The data plane is the TCP shuffle fabric of internal/transport: during the
// job the workers exchange serialized sequence/NFA frames directly with each
// other, so the coordinator never touches shuffle traffic.
//
// Because the distributed miners partition by pivot item and every pivot key
// is owned by exactly one worker of an attempt, the union of one attempt's
// pattern sets is exactly the in-process engine's output — no deduplication
// is needed, and the output is independent of how the input is split over
// workers, so a retry on fewer workers is byte-identical
// (the equivalence tests and the CI multi-process and chaos smoke jobs
// assert this).
package cluster

import (
	"seqmine/internal/mapreduce"
	"seqmine/internal/miner"
	"seqmine/internal/obs"
	"seqmine/internal/plan"
)

// JobSpec is the unit of work POSTed to one worker: everything the worker
// needs to run its share of one job attempt and find its peers. The input
// travels by reference — DatasetID names a bundle in the worker's dataset
// store (pushed ahead of the attempt via PUT /datasets/{id}) and Peer
// selects this worker's share of it — so retries and resubmissions ship no
// sequence bytes.
type JobSpec struct {
	// JobID names the attempt on the shuffle fabric: identical on every
	// peer of the attempt, fresh for every attempt of the job.
	JobID string `json:"job_id"`
	// Peer is this worker's index; DataPeers[Peer] is its shuffle address.
	// The worker mines the bundle's sequences i with
	// i mod len(DataPeers) == Peer.
	Peer int `json:"peer"`
	// DataPeers are the shuffle (transport.Node) addresses of all peers.
	DataPeers []string `json:"data_peers"`
	// Expression is the DESQ pattern expression, compiled by each worker
	// against the dataset's dictionary.
	Expression string `json:"expression"`
	// Sigma is the minimum support threshold.
	Sigma int64 `json:"sigma"`
	// DatasetID names the input bundle in the worker's dataset store.
	DatasetID string `json:"dataset_id"`
	// Plan is the query plan by value, exactly as the coordinator received
	// it: the algorithm (one plan.Algorithm.Clustered admits) and the shuffle
	// bounds configure this worker's engine; the scheduler policy rides along
	// unused. The plan's two process-local fields (Workers, SpillTmpDir) do
	// not serialize, so the worker sizes its own engine and spills into its
	// own -spill-dir.
	Plan plan.Plan `json:"plan"`
}

// JobResult is one worker's share of one attempt's output.
type JobResult struct {
	// Patterns are the frequent sequences of the pivot partitions this
	// worker owns.
	Patterns []miner.Pattern `json:"patterns"`
	// Metrics is the worker-local engine execution; ShuffleBytes is the
	// actual bytes the worker wrote to its shuffle sockets.
	Metrics mapreduce.Metrics `json:"metrics"`
	// Spans are the worker-local trace spans of this run's trace (the run
	// itself, its engine stages, and transport sends/receives), shipped back
	// so the coordinator can merge one end-to-end trace. Empty when the
	// worker records no spans or the request carried no trace context.
	Spans []obs.SpanRecord `json:"spans,omitempty"`
}

// HealthResponse is the body of a worker's GET /healthz: it advertises the
// shuffle address so a coordinator only needs to know control URLs, and the
// dataset-store occupancy for observability.
type HealthResponse struct {
	Status   string `json:"status"`
	DataAddr string `json:"data_addr"`
	// Datasets is the number of bundles in the worker's dataset store.
	Datasets int `json:"datasets"`
}
