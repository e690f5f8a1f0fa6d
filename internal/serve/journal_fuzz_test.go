package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// encodeRecords renders records the way the journal writes them, one
// JSON line each.
func encodeRecords(t *testing.T, recs []journalRecord) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("record %+v does not encode: %v", r, err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// FuzzReadJournalRecords feeds arbitrary bytes to the journal reader
// as a journal file. It must never panic or fail; every non-blank line
// is either a record (with an op and an id) or counted skipped;
// writing the records back through the journal and reading them again
// gives the same records with nothing skipped; and folding the records
// twice over replays the same job state as folding them once.
func FuzzReadJournalRecords(f *testing.F) {
	accept := `{"op":"accept","id":"j1","req":{"scenario":"uniform:n=16","protocol":"decay","seed":7,"trials":2}}`
	trial := `{"op":"trial","id":"j1","trial":1,"row":["1","7","12"]}`
	etrial := `{"op":"etrial","id":"j2","exp":13,"point":2,"trial":0,"data":"AQID"}`
	done := `{"op":"done","id":"j1","state":"done"}`
	for _, seed := range []string{
		"",
		accept + "\n" + trial + "\n" + done + "\n",
		accept + "\n" + trial[:len(trial)/2],                           // torn final line
		accept + "\n" + trial[:20] + "\n" + done + "\n",                // torn line mid-file, after a reopen
		accept + "\n\x00\xff{\"op\":\n" + etrial + "\n",                // corrupt bytes
		`{"op":"","id":"j1"}` + "\n" + `{"op":"trial"}` + "\n",         // no op, no id
		`{"op":"trial","id":"j3","trial":1e99}` + "\n" + `null` + "\n", // overflow, null
		`[1,2]` + "\n" + `"accept"` + "\n" + `{"op":"accept","id":"x","req":{"scale":"NaN"}}`,
		accept + "\n" + accept + "\n" + trial + "\n" + trial + "\n" + done + "\n" + done + "\n", // duplicates
		etrial + "\n" + etrial + "\n\n  \r\n" + `{"op":"etrial","id":"j2","exp":13,"point":2,"trial":0,"data":""}`,
		`{"op":"trial","id":"j4","trial":0,"row":[]}` + "\n" + `{"OP":"done","Id":"j4","op":"accept"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in := filepath.Join(dir, "in.ndjson")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, skipped, err := ReadJournalRecords(in)
		if err != nil {
			t.Fatal(err)
		}
		lines := 0
		for _, line := range bytes.Split(data, []byte{'\n'}) {
			if len(bytes.TrimSpace(line)) > 0 {
				lines++
			}
		}
		if len(recs)+skipped != lines {
			t.Fatalf("%d records + %d skipped of %d non-blank lines", len(recs), skipped, lines)
		}
		for _, r := range recs {
			if r.Op == "" || r.ID == "" {
				t.Fatalf("record without op or id: %+v", r)
			}
		}

		out := filepath.Join(dir, "out.ndjson")
		j, err := OpenJournal(out)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			j.Append(r)
		}
		if err := j.Close(); err != nil || j.Dropped() != 0 {
			t.Fatalf("writing %d records back: %v, %d dropped", len(recs), err, j.Dropped())
		}
		again, skippedAgain, err := ReadJournalRecords(out)
		if err != nil {
			t.Fatal(err)
		}
		if skippedAgain != 0 || !bytes.Equal(encodeRecords(t, again), encodeRecords(t, recs)) {
			t.Fatalf("records changed across a write and read (%d skipped):\n%s\nvs\n%s",
				skippedAgain, encodeRecords(t, recs), encodeRecords(t, again))
		}

		byID, order := foldJournal(recs)
		byID2, order2 := foldJournal(append(slices.Clip(recs), recs...))
		if !slices.Equal(order, order2) || !reflect.DeepEqual(byID, byID2) {
			t.Fatalf("replaying the records twice changed the job state: %v vs %v", order, order2)
		}
	})
}
