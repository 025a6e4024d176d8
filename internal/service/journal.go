package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// The durable job journal: an append-only JSONL write-ahead log under
// -cache-dir that makes the queue itself crash-safe. Every engine-bound
// submission appends a "submit" record (fsynced) before it is enqueued;
// reaching a terminal state appends "done"/"fail"/"quarantine". On
// restart, submits without a terminal record are replayed — idempotently,
// because results are content-addressed: a job whose result reached the
// cache before the crash replays as an instant cache hit. A clean
// shutdown compacts the log down to what still matters (jobs to replay,
// the quarantine ledger); a crash leaves it as-is and replay reduces it.
const (
	opSubmit     = "submit"
	opDone       = "done"       // terminal: result produced (and cached)
	opFail       = "fail"       // terminal: deterministic failure, not replayed
	opQuarantine = "quarantine" // terminal: retries exhausted; kept visible
	// opLease records a cluster lease grant or renewal: which worker holds
	// the job and until when. Non-terminal; the latest lease per id wins
	// and a terminal record clears it. A coordinator restart uses it to
	// reinstall outstanding leases instead of blindly re-enqueueing jobs
	// that are still running on live workers.
	opLease = "lease"
)

// journalRecord is one JSONL line. Submit records carry everything needed
// to rebuild the job (the canonical spec text, normalized options, the
// timeout to re-anchor the deadline at replay time); terminal records
// carry only the id and, for fail/quarantine, the error; lease records
// carry the holder and expiry.
type journalRecord struct {
	Op        string          `json:"op"`
	ID        string          `json:"id"`
	Name      string          `json:"name,omitempty"`
	Spec      string          `json:"spec,omitempty"`
	Options   *RequestOptions `json:"options,omitempty"`
	TimeoutMS int64           `json:"timeout_ms,omitempty"`
	Error     string          `json:"error,omitempty"`
	// Worker and ExpireAtMS belong to lease records: the holding worker's
	// id and the lease expiry as a Unix-milliseconds wall timestamp (wall
	// clock so it stays meaningful across the restart that replays it).
	Worker     string `json:"worker,omitempty"`
	ExpireAtMS int64  `json:"expire_at_ms,omitempty"`
}

// journal is the WAL handle. Append is fsync-per-record: the service
// journals once per job transition (not per state explored), so the sync
// cost is noise next to a verification and buys the no-lost-jobs
// guarantee the chaos suite asserts.
type journal struct {
	mu   sync.Mutex
	path string
	f    *os.File
	// skipped holds one error per whole line openJournal could not decode;
	// New counts and logs them.
	skipped []error
}

// openJournal opens (creating if absent) the WAL at path and returns the
// records already in it. An unterminated final line is what a crash
// mid-append leaves. When it does not decode it is cut off the file, so
// the next append starts a line of its own; when it does decode it is
// kept and its newline written. A whole line that does not decode is
// skipped and noted in skipped, and the records after it still replay.
// Lines have no length limit: a spec of escaped characters can journal a
// record larger than the request that carried it.
func openJournal(path string) (*journal, []journalRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("service: journal: %w", err)
	}
	var (
		recs       []journalRecord
		skipped    []error
		addNewline bool
		off        int
	)
	for i, line := range bytes.SplitAfter(data, []byte{'\n'}) {
		start := off
		off += len(line)
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		whole := line[len(line)-1] == '\n'
		var rec journalRecord
		switch err := json.Unmarshal(line, &rec); {
		case err == nil:
			recs = append(recs, rec)
			addNewline = !whole
		case whole:
			skipped = append(skipped, fmt.Errorf("line %d: %w", i+1, err))
		default:
			if err := os.Truncate(path, int64(start)); err != nil {
				return nil, nil, fmt.Errorf("service: journal: cut torn tail: %w", err)
			}
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("service: journal: %w", err)
	}
	if addNewline {
		_, err = f.Write([]byte{'\n'})
		if err == nil {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("service: journal: %w", err)
		}
	}
	return &journal{path: path, f: f, skipped: skipped}, recs, nil
}

// append writes one record and fsyncs before returning, so a record the
// caller acts on (enqueue, report terminal state) is on disk first.
func (w *journal) append(rec journalRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("service: journal closed")
	}
	if _, err := w.f.Write(data); err != nil {
		return err
	}
	return w.f.Sync()
}

// compact atomically replaces the WAL with exactly recs (write temp,
// fsync, rename) and closes the handle — the clean-shutdown epilogue.
func (w *journal) compact(recs []journalRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	tmp, err := os.CreateTemp(filepath.Dir(w.path), "journal-*")
	if err != nil {
		return err
	}
	enc := json.NewEncoder(tmp)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return err
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), w.path)
}

// close releases the handle without compacting — the crash path.
func (w *journal) close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
}

// replayState is the journal reduced to what a restart must act on.
type replayState struct {
	pending     []journalRecord // submits with no terminal record: re-enqueue
	quarantined []journalRecord // submit records whose job was quarantined
	reasons     map[string]string
	// leases maps pending job ids to their latest lease record (cluster
	// mode): an unexpired lease is reinstalled on the coordinator so a
	// still-running worker can complete it; an expired one re-dispatches
	// the job exactly once. Non-cluster replay ignores this and simply
	// re-enqueues the pending submit.
	leases map[string]journalRecord
}

// reduceJournal folds the record stream into replay state. Order matters
// only per id; unknown ops are skipped so an old binary can replay a
// newer journal's jobs.
func reduceJournal(recs []journalRecord) replayState {
	submits := make(map[string]journalRecord)
	var order []string
	terminal := make(map[string]string) // id -> terminal op
	reasons := make(map[string]string)
	leases := make(map[string]journalRecord)
	for _, rec := range recs {
		switch rec.Op {
		case opSubmit:
			if _, ok := submits[rec.ID]; !ok {
				order = append(order, rec.ID)
			}
			submits[rec.ID] = rec
		case opLease:
			leases[rec.ID] = rec
		case opDone, opFail, opQuarantine:
			terminal[rec.ID] = rec.Op
			delete(leases, rec.ID) // the lease resolved before the crash
			if rec.Error != "" {
				reasons[rec.ID] = rec.Error
			}
		}
	}
	st := replayState{reasons: reasons, leases: make(map[string]journalRecord)}
	for _, id := range order {
		switch terminal[id] {
		case "":
			st.pending = append(st.pending, submits[id])
			if lr, ok := leases[id]; ok {
				st.leases[id] = lr
			}
		case opQuarantine:
			st.quarantined = append(st.quarantined, submits[id])
		}
	}
	return st
}
