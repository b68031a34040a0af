package campaignd

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"

	"repro/internal/stressor"
)

// Run states. The store derives terminal states from what is on disk
// — a run directory with a result is done, one with an error record
// failed, anything else is pending (queued, running, or interrupted;
// the scheduler overlays the live distinction). Deriving instead of
// recording means a crash can never leave a stale state file lying
// about a run.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Store is the daemon's durable run store: one directory per run
// under <dir>/runs holding the submitted spec, the campaign journal,
// and — once finished — the result or error document. The journal is
// the source of truth for an in-flight run: a daemon killed mid-run
// restarts, finds a pending run directory, and resumes the campaign
// from its journal to the byte-identical result.
type Store struct {
	dir string

	mu   sync.Mutex
	next int
}

var runIDPat = regexp.MustCompile(`^r\d{6}$`)

// OpenStore opens (creating if needed) the store under dir.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "runs"), 0o755); err != nil {
		return nil, fmt.Errorf("campaignd: store: %w", err)
	}
	st := &Store{dir: dir}
	ids, err := st.List()
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		var n int
		if _, err := fmt.Sscanf(id, "r%06d", &n); err == nil && n >= st.next {
			st.next = n + 1
		}
	}
	if st.next == 0 {
		st.next = 1
	}
	return st, nil
}

// List returns all run IDs in submission (and therefore FIFO) order.
func (st *Store) List() ([]string, error) {
	ents, err := os.ReadDir(filepath.Join(st.dir, "runs"))
	if err != nil {
		return nil, fmt.Errorf("campaignd: store: %w", err)
	}
	var ids []string
	for _, e := range ents {
		if e.IsDir() && runIDPat.MatchString(e.Name()) {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// NewRun allocates the next run ID and persists the spec.
func (st *Store) NewRun(rawSpec []byte) (string, error) {
	st.mu.Lock()
	id := fmt.Sprintf("r%06d", st.next)
	st.next++
	st.mu.Unlock()
	dir := st.RunDir(id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("campaignd: store: %w", err)
	}
	return id, st.WriteDoc(id, docSpec, rawSpec)
}

// RunDir returns the directory of run id.
func (st *Store) RunDir(id string) string { return filepath.Join(st.dir, "runs", id) }

// JournalPath returns the run's journal path: "journal", or the
// "journal.jsonl" an older daemon left, so its pending run resumes in place.
func (st *Store) JournalPath(id string) string {
	legacy := st.docPath(id, "journal.jsonl")
	if _, err := os.Stat(legacy); err == nil {
		return legacy
	}
	return st.docPath(id, "journal")
}

// The documents a run directory holds beside its journal. The final
// metrics snapshot and the Chrome trace of a "trace": true run are kept
// out of the result on purpose: they carry wall-clock values, and the
// result must stay byte-deterministic.
const (
	docSpec    = "spec.json"
	docError   = "error.json"
	DocResult  = "result.json"
	DocMetrics = "metrics.json"
	DocTrace   = "trace.json"
)

func (st *Store) docPath(id, doc string) string { return filepath.Join(st.RunDir(id), doc) }

// ReadDoc loads one of a run's documents, as stored.
func (st *Store) ReadDoc(id, doc string) ([]byte, error) {
	if !runIDPat.MatchString(id) {
		return nil, fmt.Errorf("campaignd: bad run id %q", id)
	}
	data, err := os.ReadFile(st.docPath(id, doc))
	if err != nil {
		return nil, fmt.Errorf("campaignd: store: %w", err)
	}
	return data, nil
}

// WriteDoc persists one of a run's documents atomically — a crash
// mid-write must not leave a half-result that State would report as
// done.
func (st *Store) WriteDoc(id, doc string, data []byte) error {
	return writeFileAtomic(st.docPath(id, doc), data)
}

// ReadSpec loads and re-validates a run's spec.
func (st *Store) ReadSpec(id string) (*Spec, error) {
	data, err := st.ReadDoc(id, docSpec)
	if err != nil {
		return nil, err
	}
	return ParseSpec(data)
}

// State derives the run's terminal-or-pending state from disk.
func (st *Store) State(id string) (string, error) {
	if !runIDPat.MatchString(id) {
		return "", fmt.Errorf("campaignd: bad run id %q", id)
	}
	if _, err := os.Stat(st.docPath(id, docSpec)); err != nil {
		return "", fmt.Errorf("campaignd: unknown run %s", id)
	}
	if _, err := os.Stat(st.docPath(id, DocResult)); err == nil {
		return StateDone, nil
	}
	if _, err := os.Stat(st.docPath(id, docError)); err == nil {
		return StateFailed, nil
	}
	return StateQueued, nil
}

// ResultDoc is the durable, deterministic result of a completed run:
// no timestamps, no rates — the same campaign resumed across any
// number of daemon restarts serializes to the same bytes. Text is the
// capsim-identical summary block (Summary.Text).
type ResultDoc struct {
	ID                 string         `json:"id"`
	Campaign           string         `json:"campaign"`
	Scenarios          int            `json:"scenarios"`
	Tally              map[string]int `json:"tally"`
	Outcomes           []OutcomeDoc   `json:"outcomes"`
	RunsToFirstFailure int            `json:"runs_to_first_failure,omitempty"`
	PanicRecoveries    int            `json:"panic_recoveries,omitempty"`
	DedupSavedRuns     int            `json:"dedup_saved_runs,omitempty"`
	Text               string         `json:"text"`
}

// OutcomeDoc is one scenario outcome in a ResultDoc.
type OutcomeDoc struct {
	ID     string `json:"id"`
	Class  string `json:"class"`
	Detail string `json:"detail,omitempty"`
}

// BuildResultDoc converts a finished campaign into its durable form.
func BuildResultDoc(id string, scenarios int, res *stressor.Result, summary Summary) *ResultDoc {
	doc := &ResultDoc{
		ID: id, Campaign: res.Name, Scenarios: scenarios,
		Tally:              map[string]int{},
		Outcomes:           make([]OutcomeDoc, 0, len(res.Outcomes)),
		RunsToFirstFailure: res.RunsToFirstFailure,
		PanicRecoveries:    res.PanicRecoveries,
		DedupSavedRuns:     res.DedupSavedRuns,
		Text:               summary.Text(),
	}
	for class, n := range res.Tally {
		if n > 0 {
			doc.Tally[class.String()] = n
		}
	}
	for _, o := range res.Outcomes {
		doc.Outcomes = append(doc.Outcomes, OutcomeDoc{ID: o.Scenario.ID, Class: o.Class.String(), Detail: o.Detail})
	}
	return doc
}

// WriteResult persists a run's result document.
func (st *Store) WriteResult(id string, doc *ResultDoc) error {
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("campaignd: store: %w", err)
	}
	return st.WriteDoc(id, DocResult, append(data, '\n'))
}

// errorDoc records a failed run.
type errorDoc struct {
	ID    string `json:"id"`
	Error string `json:"error"`
}

// WriteRunError persists a run failure.
func (st *Store) WriteRunError(id, msg string) error {
	data, err := json.Marshal(errorDoc{ID: id, Error: msg})
	if err != nil {
		return err
	}
	return st.WriteDoc(id, docError, append(data, '\n'))
}

// ReadRunError loads a failed run's error message ("" when none).
func (st *Store) ReadRunError(id string) string {
	data, err := st.ReadDoc(id, docError)
	if err != nil {
		return ""
	}
	var doc errorDoc
	if json.Unmarshal(data, &doc) != nil {
		return ""
	}
	return doc.Error
}

// writeFileAtomic writes data to path via a same-directory temp file
// and rename, syncing before the rename so the visible file is never
// partial.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("campaignd: store: %w", err)
	}
	tmp := f.Name()
	_, werr := f.Write(data)
	serr := f.Sync()
	cerr := f.Close()
	if werr == nil {
		werr = serr
	}
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, path)
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("campaignd: store: %w", werr)
	}
	return nil
}
