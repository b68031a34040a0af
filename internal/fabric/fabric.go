// Package fabric distributes a fault-injection campaign across
// machines: one coordinator partitions the scenario universe into
// shard leases and N workers execute them, streaming journal entries
// back over HTTP. The protocol is leases-over-journals:
//
//   - A worker POSTs /leases and receives one shard to run as that
//     shard's journal file — the lease IS a resume journal, so whoever
//     picks a shard up continues from its last flushed entry, never
//     from scratch.
//   - The worker runs the shard through the ordinary stressor.Campaign
//     engine and flushes completed entries to
//     POST /leases/{shard}/flush?worker=W&attempt=N[&done=1] on a
//     heartbeat cadence, as the CRC-framed records a binary journal
//     holds (journal.AppendEntryFrame), at most about a megabyte a
//     request. Each flush extends the lease deadline; the one that
//     completes a shard closes and syncs that shard's journal.
//   - A lease whose deadline passes (the worker died) returns to the
//     pool; a lease whose holder keeps heartbeating but records no new
//     entries for StealAfter (the worker is stuck or pathologically
//     slow) can be stolen by an idle worker. Stealing bumps the
//     attempt counter: flushes from the superseded holder are answered
//     409 and it halts.
//   - When every shard is done the coordinator checks every shard
//     journal on disk against what it recorded (journal.Verify) and
//     assembles its shard set into the Result the unsharded sequential
//     run would have produced, byte for byte — what stressor.Merge of
//     the journals gives.
//
// Work-stealing is determinism-safe because scenario outcomes are
// deterministic: a stale holder and the thief can only ever record
// identical entries for the same index, and the coordinator records
// every entry through one stressor.ShardSet, the replay Resume and Merge
// use, which folds such repeats and refuses conflicting duplicates — a
// nondeterministic prototype fails loudly instead of merging silently.
//
// Everything is stdlib HTTP, JSON but for flush bodies. The coordinator keeps no background
// timers: lease expiry is swept inside request handlers against an
// injectable clock, which is what makes the chaos tests deterministic.
package fabric

import "encoding/json"

// Lease statuses returned by POST /leases.
const (
	// StatusGranted carries a shard to run.
	StatusGranted = "granted"
	// StatusWait means every shard is currently leased and progressing;
	// poll again.
	StatusWait = "wait"
	// StatusDone means the campaign is complete; the worker can exit.
	StatusDone = "done"
)

// RegisterRequest is the body of POST /workers.
type RegisterRequest struct {
	Worker string `json:"worker"`
}

// LeaseRequest is the body of POST /leases.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// Lease is the response of POST /leases. With StatusGranted it fully
// describes one shard assignment: the opaque spec the worker's resolver
// materializes scenarios from, the engine knobs, and the shard's journal
// file (journal.DecodeBytes reads it) — its header the campaign identity
// the worker must reproduce (and cross-check via the universe hash), its
// entries what the worker resumes from.
type Lease struct {
	Status      string `json:"status"`
	Attempt     int    `json:"attempt,omitempty"`
	Dedup       bool   `json:"dedup,omitempty"`
	StopOnFirst bool   `json:"stop_on_first,omitempty"`
	// TTLMillis tells the worker how often it must flush to keep the
	// lease (it flushes at a fraction of this).
	TTLMillis int64           `json:"ttl_ms,omitempty"`
	Spec      json.RawMessage `json:"spec,omitempty"`
	Journal   []byte          `json:"journal,omitempty"`
}

// FlushResponse acknowledges a flush.
type FlushResponse struct {
	OK bool `json:"ok"`
	// Recorded is the shard's total recorded-entry count after this
	// flush (duplicates folded).
	Recorded int `json:"recorded"`
	// CampaignDone reports that this flush completed the whole campaign:
	// the worker can exit without polling for another lease (a -oneshot
	// coordinator may be gone by then).
	CampaignDone bool `json:"campaign_done,omitempty"`
}

// ShardStatus is one shard's row in GET /status.
type ShardStatus struct {
	Shard    int    `json:"shard"`
	State    string `json:"state"` // pending | leased | done
	Worker   string `json:"worker,omitempty"`
	Attempt  int    `json:"attempt,omitempty"`
	Recorded int    `json:"recorded"`
	Owned    int    `json:"owned"`
}

// StatusDoc is the response of GET /status.
type StatusDoc struct {
	Campaign  string        `json:"campaign"`
	Shards    []ShardStatus `json:"shards"`
	Completed int           `json:"completed"`
	Total     int           `json:"total"`
	Workers   []string      `json:"workers,omitempty"`
	Done      bool          `json:"done"`
	// MergeError reports a failed final merge (conflicting duplicate
	// entries, incomplete coverage) — the distributed analogue of a
	// campaign crash.
	MergeError string `json:"merge_error,omitempty"`
}

// Event is one NDJSON line of GET /events: incremental merged progress
// while shards execute, then a final line when the campaign merges.
type Event struct {
	Type       string `json:"type"` // progress | done | error
	Completed  int    `json:"completed"`
	Total      int    `json:"total"`
	ShardsDone int    `json:"shards_done"`
	Tally      string `json:"tally,omitempty"`
	Error      string `json:"error,omitempty"`
	Final      bool   `json:"final,omitempty"`
}

// errorDoc is the structured error body every non-2xx response carries.
type errorDoc struct {
	Error string `json:"error"`
}
