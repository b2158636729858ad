// Package checkpoint makes long sweeps resumable: a Journal durably
// records every completed (experiment, point, trial, seed) unit together
// with its trial outcome, so an interrupted sweep can be restarted with
// the recorded units skipped and their recorded outcomes replayed into the
// aggregation. Because trials are independently seeded, a resumed sweep is
// byte-identical to an uninterrupted one — the journal stores exactly the
// integer fields the aggregation consumes, and integers round-trip JSON
// exactly.
//
// Durability discipline, two modes:
//
//   - Rewrite mode (Open + Flush): the journal lives in memory and Flush
//     writes the complete journal to a temporary file in the destination
//     directory, fsyncs it, renames it into place, and fsyncs the parent
//     directory so the rename itself survives a power cut. The rename is
//     atomic on POSIX filesystems — readers observe either the old
//     complete journal or the new complete journal, never a torn one.
//     The one-shot CLIs flush at point granularity and on shutdown.
//
//   - Append mode (OpenAppend + Append/Sync): every recorded unit is
//     appended as one JSONL line by Append, and Sync fsyncs every line
//     appended so far; RecordDurable is the two in one call. A unit is
//     durable once the Sync after its Append returns. The long-running
//     sweep service uses this mode: O(1) durability per cell instead of
//     an O(journal) rewrite per trial, with one fsync per batch of cells
//     (Close syncs too, so lines appended before it are kept). A crash
//     mid-append can leave a truncated final line; since every committed
//     write ends in a newline, the loader treats any unterminated tail as
//     an uncommitted trial and drops it, parsable or not (OpenAppend
//     additionally truncates it away before appending).
//     Corruption anywhere before the final line is still a hard error —
//     checkpointed work is never silently discarded.
//
// File format (versioned, line-oriented JSON): the first line is a header
// object {"schema":"manhattanflood/checkpoint/v1"}; every following line
// is one Entry. Line-oriented JSON keeps the journal greppable and
// append-diffable in review, and gives append mode its O(1) commit.
package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
)

// schema identifies the journal file format.
const schema = "manhattanflood/checkpoint/v1"

// Unit identifies one trial of one sweep point. Two units are the same
// work if and only if all fields match; Spec exists to fingerprint the
// parameters that the other fields do not capture (problem size, radius,
// speed, step budget, source placement), so a quick-mode journal can never
// satisfy a full-size resume. Worker counts are deliberately NOT part of
// the identity: results are bit-identical across worker counts by the
// runtime's determinism contract, so a sweep may be resumed with a
// different -workers setting.
type Unit struct {
	// Experiment is the experiment or sweep identifier, e.g. "E03" or
	// "sweep/r".
	Experiment string `json:"experiment"`
	// Point is the index of the parameter point within the experiment's
	// sweep (each floodTrials call site in an experiment uses a distinct
	// point index).
	Point int `json:"point"`
	// Trial is the trial index within the point.
	Trial int `json:"trial"`
	// Seed is the trial's derived world seed.
	Seed uint64 `json:"seed"`
	// Spec fingerprints the remaining run parameters (see type comment).
	Spec string `json:"spec,omitempty"`
}

// Result is the durable trial outcome — the exact fields the sweep
// aggregation consumes, all integers (or bools), so replaying a recorded
// outcome reproduces the aggregate bit for bit.
type Result struct {
	// Completed reports whether the flood finished within its budget.
	Completed bool `json:"completed"`
	// Time is the flooding time in steps (or the exhausted budget).
	Time int `json:"time"`
	// CZTime is the Central Zone completion step (-1 when untracked).
	CZTime int `json:"cz_time"`
	// SuburbLag is Time - CZTime (-1 when unknown).
	SuburbLag int `json:"suburb_lag"`
	// Informed is the final informed-agent count.
	Informed int `json:"informed"`
	// N is the population size.
	N int `json:"n"`
}

// Entry is one journal line: a completed unit and its outcome.
type Entry struct {
	Unit
	Result Result `json:"result"`
}

// Journal is a concurrency-safe set of completed units. The zero value is
// not usable; construct with New (in-memory only), Open (backed by a
// file, rewrite mode) or OpenAppend (backed by a file, durable-append
// mode).
type Journal struct {
	mu      sync.Mutex
	path    string // empty for in-memory journals
	entries []Entry
	index   map[Unit]int
	f       *os.File // non-nil in append mode
	// released marks a journal Release let go of: it holds no entries and
	// takes no more.
	released bool
}

// errReleased is what Append and Flush report on a released journal.
var errReleased = errors.New("checkpoint: journal released")

// New returns an in-memory journal (no backing file; Flush is a no-op).
// Tests and one-shot runs use it to exercise resume logic without disk.
func New() *Journal {
	return &Journal{index: make(map[Unit]int)}
}

// Open loads the journal at path, creating an empty one (in memory — the
// file appears at first Flush) when the file does not exist yet. A
// malformed journal is an error, never silently truncated, with one
// carefully scoped exception: a final line without its trailing newline
// is the signature of a crash mid-append and is treated as an uncommitted
// trial — dropped, not fatal, even when it parses. The caller
// should delete or move a journal corrupted anywhere else explicitly
// rather than lose checkpointed work to a quiet reset.
func Open(path string) (*Journal, error) {
	j, _, err := load(path)
	return j, err
}

// OpenAppend opens the journal at path for durable per-record appends
// (creating it, header included, when absent). Existing entries are
// loaded exactly as Open does; a truncated trailing line left by a crash
// mid-append is physically truncated away so subsequent appends start on
// a clean line boundary. Callers must Close the journal when done.
func OpenAppend(path string) (*Journal, error) {
	j, goodLen, err := load(path)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: opening journal for append: %w", err)
	}
	if err := f.Truncate(goodLen); err != nil {
		f.Close()
		return nil, fmt.Errorf("checkpoint: truncating partial journal tail: %w", err)
	}
	if _, err := f.Seek(goodLen, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("checkpoint: seeking journal: %w", err)
	}
	if goodLen == 0 {
		// Fresh journal: commit the header and make the new file durable
		// before any entry refers to it.
		if _, err := fmt.Fprintf(f, "{\"schema\":%q}\n", schema); err != nil {
			f.Close()
			return nil, fmt.Errorf("checkpoint: writing journal header: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("checkpoint: syncing journal header: %w", err)
		}
		if err := syncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, err
		}
	}
	j.f = f
	return j, nil
}

// load reads and parses the journal at path, returning the journal, the
// byte length of the committed prefix (entries end exactly there) and any
// hard error. Every committed write ends in a newline — Append writes
// one, Flush encodes line by line — so an unterminated final line
// was never acknowledged: it is excluded whether or not it parses. A torn
// header therefore leaves an empty journal with a committed length of 0.
func load(path string) (*Journal, int64, error) {
	j := New()
	j.path = path
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return j, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("checkpoint: reading journal: %w", err)
	}
	off := 0
	for lineNo := 1; ; lineNo++ {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			// Crash mid-append (or mid-header): the unterminated tail is
			// uncommitted. Drop it; everything before it stands.
			return j, int64(off), nil
		}
		line := data[off : off+nl]
		off += nl + 1
		switch {
		case lineNo == 1:
			var hdr struct {
				Schema string `json:"schema"`
			}
			if err := json.Unmarshal(line, &hdr); err != nil || hdr.Schema != schema {
				return nil, 0, fmt.Errorf("checkpoint: %s is not a %s journal", path, schema)
			}
		case len(line) == 0:
		default:
			var e Entry
			if err := json.Unmarshal(line, &e); err != nil {
				return nil, 0, fmt.Errorf("checkpoint: %s line %d: %w", path, lineNo, err)
			}
			j.record(e)
		}
	}
}

// syncDir fsyncs a directory so a just-created or just-renamed file's
// directory entry survives a power cut. No-op on Windows, where
// directories cannot be opened for syncing.
func syncDir(dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("checkpoint: opening dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("checkpoint: syncing dir: %w", err)
	}
	return nil
}

// Path returns the backing file path ("" for in-memory journals).
func (j *Journal) Path() string { return j.path }

// Len returns the number of recorded units.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// Lookup returns the recorded outcome for u, if any.
func (j *Journal) Lookup(u Unit) (Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	i, ok := j.index[u]
	if !ok {
		return Result{}, false
	}
	return j.entries[i].Result, true
}

// Record adds a completed unit to the journal (in memory; call Flush to
// persist). Re-recording an already-present unit overwrites its outcome —
// outcomes are deterministic per unit, so this only matters for journals
// shared across incompatible code versions, where last-write-wins is as
// good a rule as any. A released journal ignores it.
func (j *Journal) Record(u Unit, r Result) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.released {
		return
	}
	j.record(Entry{Unit: u, Result: r})
}

// Append records a completed unit and, in append mode, writes its line to
// the journal file without an fsync: the line survives a crash of the
// process but not yet a power cut, until the next Sync. Outside append
// mode it behaves like Record. The in-memory record always succeeds even
// when the write fails, so a full disk degrades durability, not
// correctness: the caller decides whether to fail open (keep computing,
// warn) or stop.
func (j *Journal) Append(u Unit, r Result) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.released {
		return errReleased
	}
	e := Entry{Unit: u, Result: r}
	j.record(e)
	if j.f == nil {
		return nil
	}
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("checkpoint: encoding entry: %w", err)
	}
	line = append(line, '\n')
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("checkpoint: appending entry: %w", err)
	}
	return nil
}

// Sync commits every line Append has written so far with one fsync. No-op
// outside append mode. A writer that appends a batch of units and then
// syncs once pays one fsync per batch instead of one per unit.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("checkpoint: syncing entry: %w", err)
	}
	return nil
}

// RecordDurable is Append followed by Sync: in append mode the unit
// survives a SIGKILL or a power cut the instant this returns.
func (j *Journal) RecordDurable(u Unit, r Result) error {
	if err := j.Append(u, r); err != nil {
		return err
	}
	return j.Sync()
}

// Close releases the append-mode file handle after a final sync. No-op
// for in-memory and rewrite-mode journals.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	syncErr := j.f.Sync()
	closeErr := j.f.Close()
	j.f = nil
	if syncErr != nil {
		return fmt.Errorf("checkpoint: syncing journal on close: %w", syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("checkpoint: closing journal: %w", closeErr)
	}
	return nil
}

// Release lets go of a journal its writer is done with: the append-mode
// file handle is closed without the final sync Close does, and the
// in-memory entries are dropped. It is for a writer whose every Append
// was already followed by a Sync: the file then holds every entry, and a
// later Open or OpenAppend loads them again. Afterwards the journal is
// empty, Append and a file-backed Flush fail, Record is ignored and Close is a no-op.
func (j *Journal) Release() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.entries, j.index, j.released = nil, nil, true
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	if err != nil {
		return fmt.Errorf("checkpoint: closing journal: %w", err)
	}
	return nil
}

func (j *Journal) record(e Entry) {
	if i, ok := j.index[e.Unit]; ok {
		j.entries[i] = e
		return
	}
	j.index[e.Unit] = len(j.entries)
	j.entries = append(j.entries, e)
}

// Entries returns a copy of the journal's entries in deterministic
// (experiment, point, trial, seed, spec) order, regardless of the order
// trials completed in — journal files diff cleanly between runs.
func (j *Journal) Entries() []Entry {
	j.mu.Lock()
	out := append([]Entry(nil), j.entries...)
	j.mu.Unlock()
	sortEntries(out)
	return out
}

func sortEntries(out []Entry) {
	sort.Slice(out, func(a, b int) bool {
		ua, ub := out[a].Unit, out[b].Unit
		if ua.Experiment != ub.Experiment {
			return ua.Experiment < ub.Experiment
		}
		if ua.Point != ub.Point {
			return ua.Point < ub.Point
		}
		if ua.Trial != ub.Trial {
			return ua.Trial < ub.Trial
		}
		if ua.Seed != ub.Seed {
			return ua.Seed < ub.Seed
		}
		return ua.Spec < ub.Spec
	})
}

// Flush persists the journal: the complete contents are written to a
// temporary file next to the destination, fsynced, renamed into place,
// and the parent directory is fsynced so the rename itself is durable —
// a crash at any instant leaves either the old complete journal or the
// new complete journal on disk. No-op for in-memory journals. In append
// mode the backing handle is reopened onto the renamed file (the rename
// replaced the inode the old handle pointed at).
func (j *Journal) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.path == "" {
		return nil
	}
	if j.released {
		return errReleased
	}
	entries := append([]Entry(nil), j.entries...)
	sortEntries(entries)
	dir := filepath.Dir(j.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(j.path)+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint: creating temp journal: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := fmt.Fprintf(tmp, "{\"schema\":%q}\n", schema); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: writing journal: %w", err)
	}
	enc := json.NewEncoder(tmp)
	for _, e := range entries {
		if err := enc.Encode(e); err != nil {
			tmp.Close()
			return fmt.Errorf("checkpoint: writing journal: %w", err)
		}
	}
	// Sync before the rename: the rename must never become visible ahead
	// of the data it points at.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: syncing journal: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: closing journal: %w", err)
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		return fmt.Errorf("checkpoint: publishing journal: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	if j.f != nil {
		// The rename orphaned the inode behind the append handle; reopen
		// onto the published file and continue appending at its end.
		old := j.f
		f, err := os.OpenFile(j.path, os.O_RDWR, 0o644)
		if err != nil {
			return fmt.Errorf("checkpoint: reopening journal after flush: %w", err)
		}
		if _, err := f.Seek(0, 2); err != nil {
			f.Close()
			return fmt.Errorf("checkpoint: seeking reopened journal: %w", err)
		}
		j.f = f
		old.Close()
	}
	return nil
}
