package stats

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzTableCodecs feeds arbitrary bytes to the three table decoders.
// Nothing may panic, and for each of ReadCSV, ReadJSON and
// DecodeTables, decode → encode → decode is a fixed point: whatever a
// decoder accepts, its encoder writes back to bytes that decode to the
// same tables.
func FuzzTableCodecs(f *testing.F) {
	var csvSample, jsonSample, stream bytes.Buffer
	sampleTable().WriteCSV(&csvSample)
	sampleTable().WriteJSON(&jsonSample)
	sink, _ := NewSink("json", &stream)
	sink.Emit(sampleTable())
	sink.Emit(NewTable("", "a"))
	sink.Close()
	for _, seed := range []string{
		csvSample.String(),
		jsonSample.String(),
		stream.String(),
		"#table,x\na,b\n",          // title record
		"#table,\n#table,x\na,b\n", // untitled table whose header reads like a title
		"a,b\n\"\"\nc\n",           // a record holding one empty field
		"a,\"multi\nline\",\"q\"\"uote\"\n",
		"a\r\nb\r\n",
		`{"title":"t","headers":["a","b"],"rows":[["1"],null,["2","3","4"]]}`,
		`{"headers":null,"rows":[]}`,
		`[null,{"headers":["a"]}]`,
		`null`,
		`[]`,
		`{"title":`,
		"",
		`{"headers":["a"],"rows":[]} trailing{`, // data after the value
		`[{"headers":["a"]}] ]garbage`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if t1, err := ReadCSV(bytes.NewReader(data)); err == nil {
			var buf bytes.Buffer
			if err := t1.WriteCSV(&buf); err != nil {
				t.Fatalf("WriteCSV of %#v: %v", t1, err)
			}
			t2, err := ReadCSV(bytes.NewReader(buf.Bytes()))
			if err != nil || !reflect.DeepEqual(t1, t2) {
				t.Fatalf("CSV %q decodes to %#v, re-encoded as %q decodes to %#v (%v)", data, t1, buf.String(), t2, err)
			}
		}
		if t1, err := ReadJSON(bytes.NewReader(data)); err == nil {
			var buf bytes.Buffer
			if err := t1.WriteJSON(&buf); err != nil {
				t.Fatalf("WriteJSON of %#v: %v", t1, err)
			}
			t2, err := ReadJSON(bytes.NewReader(buf.Bytes()))
			if err != nil || !reflect.DeepEqual(t1, t2) {
				t.Fatalf("JSON %q decodes to %#v, re-encoded as %q decodes to %#v (%v)", data, t1, buf.String(), t2, err)
			}
		}
		if ts1, err := DecodeTables(bytes.NewReader(data)); err == nil {
			var buf bytes.Buffer
			sink, _ := NewSink("json", &buf)
			for _, tb := range ts1 {
				if err := sink.Emit(tb); err != nil {
					t.Fatalf("json sink Emit of %#v: %v", tb, err)
				}
			}
			if err := sink.Close(); err != nil {
				t.Fatal(err)
			}
			ts2, err := DecodeTables(bytes.NewReader(buf.Bytes()))
			// A null stream and an empty one both hold no table.
			if err != nil || len(ts1) != len(ts2) || (len(ts1) > 0 && !reflect.DeepEqual(ts1, ts2)) {
				t.Fatalf("stream %q decodes to %d tables, re-encoded as %q decodes to %d (%v)", data, len(ts1), buf.String(), len(ts2), err)
			}
		}
	})
}
