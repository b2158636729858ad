package checkpoint

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpenAppend opens arbitrary bytes as an append-mode journal. OpenAppend
// may reject the input with an error but must never panic, and a journal it
// accepts must stay usable: one RecordDurable, Close and Open succeed, the
// appended unit reads back, and every entry loaded before the append is
// kept with its outcome.
func FuzzOpenAppend(f *testing.F) {
	const header = `{"schema":"manhattanflood/checkpoint/v1"}` + "\n"
	const entry = `{"experiment":"E03","point":0,"trial":1,"seed":7,"spec":"n=800","result":{"completed":true,"time":12,"cz_time":-1,"suburb_lag":-1,"informed":800,"n":800}}` + "\n"
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
