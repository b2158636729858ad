package checkpoint

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func unit(exp string, point, trial int) Unit {
	return Unit{Experiment: exp, Point: point, Trial: trial,
		Seed: uint64(trial) * 7, Spec: "n=800"}
}

func TestRecordLookupRoundTrip(t *testing.T) {
	j := New()
	u := unit("E03", 1, 2)
	if _, ok := j.Lookup(u); ok {
		t.Fatal("empty journal claims a unit")
	}
	want := Result{Completed: true, Time: 123, CZTime: 40, SuburbLag: 83, Informed: 800, N: 800}
	if err := j.Append(u, want); err != nil {
		t.Fatal(err)
	}
	got, ok := j.Lookup(u)
	if !ok || got != want {
		t.Fatalf("Lookup = %+v, %v; want %+v", got, ok, want)
	}
	// A unit differing only in Spec is different work.
	other := u
	other.Spec = "n=4000"
	if _, ok := j.Lookup(other); ok {
		t.Error("spec mismatch must miss")
	}
	if j.Len() != 1 {
		t.Errorf("Len = %d", j.Len())
	}
}

func TestAppendAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	res := Result{Completed: true, Time: 10, CZTime: -1, SuburbLag: -1, Informed: 5, N: 5}
	// Append out of order; the reloaded entries must come out sorted.
	for _, e := range []Entry{
		{unit("E04", 0, 1), res},
		{unit("E03", 0, 0), res},
		{unit("E03", 0, 1), Result{Completed: false, Time: 99, CZTime: -1, SuburbLag: -1, Informed: 3, N: 5}},
	} {
		if err := j.Append(e.Unit, e.Result); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 3 {
		t.Fatalf("reloaded %d entries, want 3", re.Len())
	}
	got, ok := re.Lookup(unit("E03", 0, 1))
	if !ok || got.Time != 99 || got.Completed {
		t.Fatalf("reloaded entry = %+v, %v", got, ok)
	}
	entries := re.Entries()
	if entries[0].Experiment != "E03" || entries[0].Trial != 0 ||
		entries[2].Experiment != "E04" {
		t.Errorf("entries not in deterministic order: %+v", entries)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), `{"schema":"manhattanflood/checkpoint/v1"}`) {
		t.Errorf("missing schema header: %q", string(data)[:60])
	}
}

func TestOpenMissingFileIsEmpty(t *testing.T) {
	j, err := Open(filepath.Join(t.TempDir(), "nope.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 0 {
		t.Errorf("Len = %d", j.Len())
	}
}

func TestOpenRejectsCorruptJournal(t *testing.T) {
	dir := t.TempDir()
	badHeader := filepath.Join(dir, "bad_header.jsonl")
	if err := os.WriteFile(badHeader, []byte("{\"schema\":\"something/else\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(badHeader); err == nil {
		t.Error("foreign schema accepted")
	}

	// The header must be the first line, not the first non-blank one.
	blankFirst := filepath.Join(dir, "blank_first.jsonl")
	if err := os.WriteFile(blankFirst, []byte("\n{\"schema\":\"manhattanflood/checkpoint/v1\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(blankFirst); err == nil {
		t.Error("journal with a blank first line accepted")
	}

	badLine := filepath.Join(dir, "bad_line.jsonl")
	content := "{\"schema\":\"manhattanflood/checkpoint/v1\"}\n{not json\n"
	if err := os.WriteFile(badLine, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(badLine); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("corrupt line error = %v, want line number", err)
	}
}

// TestTruncatedTailIsUncommittedTrial is the corruption-injection test
// for crash-mid-append: a final line without a trailing newline must be
// dropped as an uncommitted trial, whether or not it parses, while every
// terminated line before it survives. Corruption anywhere else stays a
// hard error (see TestOpenRejectsCorruptJournal).
func TestTruncatedTailIsUncommittedTrial(t *testing.T) {
	for _, tc := range []struct {
		name string
		trim int // bytes chopped off the end of the file
	}{
		{"mid_entry", 9},      // inside the final entry's JSON, newline gone
		{"before_newline", 1}, // the final entry parses, only its newline is gone
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal.jsonl")
			j, err := OpenAppend(path)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if err := j.RecordDurable(unit("E03", 0, i), Result{Completed: true, Time: 10 + i}); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}

			// Inject the crash: chop the file inside the last line.
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)-tc.trim], 0o644); err != nil {
				t.Fatal(err)
			}

			re, err := Open(path)
			if err != nil {
				t.Fatalf("truncated tail must not be fatal: %v", err)
			}
			if re.Len() != 2 {
				t.Fatalf("reloaded %d entries, want 2 (tail dropped)", re.Len())
			}
			if _, ok := re.Lookup(unit("E03", 0, 2)); ok {
				t.Error("the torn trial must read as uncommitted")
			}

			// OpenAppend must clear the partial tail so the next append
			// starts on a clean line boundary — the re-run of the torn
			// trial lands exactly where the torn record was.
			ja, err := OpenAppend(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := ja.RecordDurable(unit("E03", 0, 2), Result{Completed: true, Time: 12}); err != nil {
				t.Fatal(err)
			}
			if err := ja.Close(); err != nil {
				t.Fatal(err)
			}
			final, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if final.Len() != 3 {
				t.Fatalf("repaired journal has %d entries, want 3", final.Len())
			}
			if got, ok := final.Lookup(unit("E03", 0, 2)); !ok || got.Time != 12 {
				t.Errorf("re-recorded trial = %+v, %v", got, ok)
			}
		})
	}
}

// TestTruncatedHeaderIsEmptyJournal: a crash while the header itself was
// being written leaves zero committed work — the journal loads empty,
// whether the cut fell inside the header or just before its newline.
func TestTruncatedHeaderIsEmptyJournal(t *testing.T) {
	for _, tc := range []struct{ name, content string }{
		{"mid_header", `{"sche`},
		{"before_newline", `{"schema":"manhattanflood/checkpoint/v1"}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal.jsonl")
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			j, err := Open(path)
			if err != nil {
				t.Fatalf("torn header must read as empty, got %v", err)
			}
			if j.Len() != 0 {
				t.Errorf("Len = %d, want 0", j.Len())
			}
			// And OpenAppend must be able to rebuild it from scratch.
			ja, err := OpenAppend(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := ja.RecordDurable(unit("E03", 0, 0), Result{Completed: true, Time: 7}); err != nil {
				t.Fatal(err)
			}
			if err := ja.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if re.Len() != 1 {
				t.Errorf("rebuilt journal has %d entries, want 1", re.Len())
			}
		})
	}
}

// TestAppendSurvivesReload: RecordDurable commits each unit on its own;
// no Close is required for the units to be visible to a reloading
// process.
func TestAppendSurvivesReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	want := Result{Completed: true, Time: 42, CZTime: 7, SuburbLag: 35, Informed: 9, N: 9}
	if err := j.RecordDurable(unit("E03", 1, 0), want); err != nil {
		t.Fatal(err)
	}
	// Deliberately no Close: simulate SIGKILL by reloading now.
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := re.Lookup(unit("E03", 1, 0)); !ok || got != want {
		t.Fatalf("Lookup after reload = %+v, %v; want %+v", got, ok, want)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAppendSyncMatchesRecordDurable: a batch of Appends followed by one
// Sync writes exactly the bytes a RecordDurable per unit writes.
func TestAppendSyncMatchesRecordDurable(t *testing.T) {
	dir := t.TempDir()
	perUnit, err := OpenAppend(filepath.Join(dir, "per-unit.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	batched, err := OpenAppend(filepath.Join(dir, "batched.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		u, r := unit("E03", i%2, i), Result{Completed: i%3 != 0, Time: 10 + i, CZTime: -1, SuburbLag: -1, Informed: i, N: 9}
		if err := perUnit.RecordDurable(u, r); err != nil {
			t.Fatal(err)
		}
		if err := batched.Append(u, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := batched.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, j := range []*Journal{perUnit, batched} {
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(perUnit.Path())
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(batched.Path())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("Append+Sync wrote\n%s\nRecordDurable wrote\n%s", got, want)
	}
}

// TestAppendThenClosePersists: Close syncs, so lines appended without a
// Sync of their own are all there on reopen.
func TestAppendThenClosePersists(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := j.Append(unit("E03", 0, i), Result{Time: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 4 {
		t.Fatalf("reopened journal has %d entries, want 4", re.Len())
	}
	for i := 0; i < 4; i++ {
		if got, ok := re.Lookup(unit("E03", 0, i)); !ok || got.Time != i {
			t.Errorf("trial %d = %+v, %v after reopen", i, got, ok)
		}
	}
}

// TestReleaseDropsEntriesKeepsFile: a released journal closes its file
// and forgets its entries, refuses further appends, and the
// file still holds every synced line for the next open.
func TestReleaseDropsEntriesKeepsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(unit("E03", 0, i), Result{Time: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := j.Release(); err != nil {
		t.Fatal(err)
	}
	if j.Len() != 0 {
		t.Fatalf("released journal still holds %d entries", j.Len())
	}
	if _, ok := j.Lookup(unit("E03", 0, 0)); ok {
		t.Fatal("released journal still answers a lookup")
	}
	if err := j.Append(unit("E03", 0, 9), Result{}); err == nil {
		t.Fatal("Append after Release: want an error")
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close after Release: %v", err)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 3 {
		t.Fatalf("reopened journal has %d entries, want 3", re.Len())
	}
}

func TestRerecordOverwrites(t *testing.T) {
	j := New()
	u := unit("E03", 0, 0)
	for _, r := range []Result{{Time: 1}, {Time: 2}} {
		if err := j.Append(u, r); err != nil {
			t.Fatal(err)
		}
	}
	if j.Len() != 1 {
		t.Fatalf("Len = %d", j.Len())
	}
	if got, _ := j.Lookup(u); got.Time != 2 {
		t.Errorf("Time = %d, want last write", got.Time)
	}
}

func TestConcurrentRecord(t *testing.T) {
	j := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := j.Append(unit("E03", w, i), Result{Time: i}); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	if j.Len() != 800 {
		t.Errorf("Len = %d, want 800", j.Len())
	}
}
