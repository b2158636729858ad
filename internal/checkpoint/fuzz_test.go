package checkpoint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

const (
	fuzzHeader = `{"schema":"manhattanflood/checkpoint/v1"}` + "\n"
	fuzzEntry  = `{"experiment":"E03","point":0,"trial":1,"seed":7,"spec":"n=800","result":{"completed":true,"time":12,"cz_time":-1,"suburb_lag":-1,"informed":800,"n":800}}` + "\n"
)

// FuzzOpenAppend opens arbitrary bytes as an append-mode journal. OpenAppend
// may reject the input with an error but must never panic, and a journal it
// accepts must stay usable: one RecordDurable, Close and Open succeed, the
// appended unit reads back, and every entry loaded before the append is
// kept with its outcome.
func FuzzOpenAppend(f *testing.F) {
	header, entry := fuzzHeader, fuzzEntry
	valid := header + entry + `{"experiment":"E03","point":0,"trial":2,"seed":14,"result":{"time":3}}` + "\n"
	f.Add([]byte(valid))
	f.Add([]byte(valid[:len(valid)-1])) // torn just before the final newline
	f.Add([]byte(valid[:len(valid)-9])) // torn inside the final entry
	f.Add([]byte(header[:len(header)-1]))
	f.Add([]byte(header[:6]))
	f.Add([]byte(header + "\n" + entry + "null\n"))
	f.Add([]byte(header + "{not json\n" + entry))
	f.Add([]byte{})
	f.Add([]byte("\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenAppend(path)
		if err != nil {
			return
		}
		before := j.Entries()
		u := Unit{Experiment: "fuzz/append"}
		for _, ok := j.Lookup(u); ok; _, ok = j.Lookup(u) {
			u.Trial++
		}
		want := Result{Completed: true, Time: 5, CZTime: -1, SuburbLag: -1, Informed: 9, N: 9}
		if err := j.RecordDurable(u, want); err != nil {
			t.Fatalf("RecordDurable on an accepted journal: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		re, err := Open(path)
		if err != nil {
			t.Fatalf("reopening an accepted journal after one append: %v", err)
		}
		if re.Len() != len(before)+1 {
			t.Fatalf("reopened journal has %d entries, want %d", re.Len(), len(before)+1)
		}
		if got, ok := re.Lookup(u); !ok || got != want {
			t.Fatalf("appended unit = %+v, %v; want %+v", got, ok, want)
		}
		for _, e := range before {
			if got, ok := re.Lookup(e.Unit); !ok || got != e.Result {
				t.Fatalf("entry %+v lost across the append: got %+v, %v", e.Unit, got, ok)
			}
		}
	})
}

// FuzzJournalLoad opens arbitrary bytes with Open and holds it to the
// loader's rule, restated here: only the newline-terminated prefix is
// committed, so an unterminated tail is dropped whatever it holds; in
// that prefix the first line must be the schema header and every later
// non-empty line one entry, else Open is a hard error. An accepted
// journal holds exactly the committed entries (a re-recorded unit keeps
// its last outcome), and appending them to a fresh journal through
// OpenAppend and reopening it gives them back.
func FuzzJournalLoad(f *testing.F) {
	valid := fuzzHeader + fuzzEntry + `{"experiment":"E03","point":1,"trial":0,"seed":3,"result":{"time":4}}` + "\n"
	unterminated := `{"experiment":"E03","point":2,"trial":0,"seed":5,"result":{"time":9}}`
	f.Add([]byte(valid))
	f.Add([]byte(valid + unterminated[:20]))                 // torn tail
	f.Add([]byte(valid + unterminated))                      // parsable, unterminated
	f.Add([]byte(fuzzHeader + "{not json\n" + fuzzEntry))    // corrupt before the tail
	f.Add([]byte(fuzzHeader + "\n" + fuzzEntry + fuzzEntry)) // blank line, re-recorded unit
	f.Add([]byte(`{"schema":"other/v9"}` + "\n" + fuzzEntry))
	f.Add([]byte(fuzzHeader[:10]))
	f.Add([]byte(fuzzHeader + "null\n"))
	f.Add([]byte{})
	f.Add([]byte("\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(path)
		want, ok := committedEntries(data[:bytes.LastIndexByte(data, '\n')+1])
		if !ok {
			if err == nil {
				t.Fatalf("Open accepted a journal corrupt before its tail (%d entries)", j.Len())
			}
			return
		}
		if err != nil {
			t.Fatalf("Open rejected a journal whose committed prefix is well formed: %v", err)
		}
		sameEntries(t, "Open", j.Entries(), want)
		copyPath := filepath.Join(t.TempDir(), "copy.jsonl")
		w, err := OpenAppend(copyPath)
		if err != nil {
			t.Fatalf("OpenAppend: %v", err)
		}
		for _, e := range j.Entries() {
			if err := w.Append(e.Unit, e.Result); err != nil {
				t.Fatalf("Append: %v", err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		re, err := Open(copyPath)
		if err != nil {
			t.Fatalf("reopening the appended copy: %v", err)
		}
		sameEntries(t, "append and reopen", re.Entries(), want)
	})
}

// committedEntries parses the committed prefix of a journal line by line
// and reports whether it is well formed.
func committedEntries(committed []byte) ([]Entry, bool) {
	if len(committed) == 0 {
		return nil, true
	}
	lines := bytes.Split(committed[:len(committed)-1], []byte("\n"))
	var hdr struct {
		Schema string `json:"schema"`
	}
	if json.Unmarshal(lines[0], &hdr) != nil || hdr.Schema != schema {
		return nil, false
	}
	var out []Entry
	at := map[Unit]int{}
	for _, line := range lines[1:] {
		if len(line) == 0 {
			continue
		}
		var e Entry
		if json.Unmarshal(line, &e) != nil {
			return nil, false
		}
		if i, ok := at[e.Unit]; ok {
			out[i] = e
			continue
		}
		at[e.Unit] = len(out)
		out = append(out, e)
	}
	sortEntries(out)
	return out, true
}

func sameEntries(t *testing.T, what string, got, want []Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}
