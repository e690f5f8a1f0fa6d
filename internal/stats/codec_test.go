package stats

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func sampleTable() *Table {
	t := NewTable("E0: sample, n=4", "family", "rounds", "ok")
	t.AddRow("uniform", 12.5, true)
	t.AddRow("with,comma", 3, "quoted \"cell\"")
	t.AddRow("short-row")
	return t
}

// TestCSVGoldenRoundTrip pins the CSV encoding and checks that
// ReadCSV reproduces the table exactly, including the title record,
// ragged rows, and cells needing quoting.
func TestCSVGoldenRoundTrip(t *testing.T) {
	tb := sampleTable()
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	golden := "#table,\"E0: sample, n=4\"\n" +
		"family,rounds,ok\n" +
		"uniform,12.50,true\n" +
		"\"with,comma\",3,\"quoted \"\"cell\"\"\"\n" +
		"short-row\n"
	if buf.String() != golden {
		t.Fatalf("CSV encoding drifted:\n got: %q\nwant: %q", buf.String(), golden)
	}
	back, err := ReadCSV(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, tb) {
		t.Fatalf("CSV round trip: %#v != %#v", back, tb)
	}
}

// TestCSVWithoutTitle checks the optional title record is really
// optional in both directions.
func TestCSVWithoutTitle(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow(1, 2)
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), titleMarker) {
		t.Fatalf("untitled table emitted a title record: %q", buf.String())
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, tb) {
		t.Fatalf("round trip: %#v != %#v", back, tb)
	}
}

// TestCSVAmbiguousRecords pins the two records WriteCSV must spell out
// to round-trip: an untitled table whose header record reads like a
// title record, and a record holding one empty field, which
// encoding/csv would write as a skipped blank line.
func TestCSVAmbiguousRecords(t *testing.T) {
	titleLike := NewTable("", titleMarker, "x")
	titleLike.AddRow("a", "b")
	emptyCell := NewTable("", "")
	emptyCell.AddRow("")
	emptyCell.AddRow("z")
	for _, tb := range []*Table{titleLike, emptyCell} {
		var buf bytes.Buffer
		if err := tb.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%q: %v", buf.String(), err)
		}
		if !reflect.DeepEqual(back, tb) {
			t.Fatalf("round trip through %q: %#v != %#v", buf.String(), back, tb)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Fatal("want error for empty CSV input")
	}
	if _, err := ReadCSV(strings.NewReader("#table,only a title\n")); err == nil {
		t.Fatal("want error for title-only CSV input")
	}
	if _, err := ReadCSV(strings.NewReader("a,\"unterminated\n")); err == nil {
		t.Fatal("want error for malformed quoting")
	}
}

// TestJSONGoldenRoundTrip pins the JSON encoding and the decoder.
func TestJSONGoldenRoundTrip(t *testing.T) {
	tb := sampleTable()
	var buf bytes.Buffer
	if err := tb.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := `{
  "title": "E0: sample, n=4",
  "headers": [
    "family",
    "rounds",
    "ok"
  ],
  "rows": [
    [
      "uniform",
      "12.50",
      "true"
    ],
    [
      "with,comma",
      "3",
      "quoted \"cell\""
    ],
    [
      "short-row"
    ]
  ]
}
`
	if buf.String() != golden {
		t.Fatalf("JSON encoding drifted:\n got: %s\nwant: %s", buf.String(), golden)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, tb) {
		t.Fatalf("JSON round trip: %#v != %#v", back, tb)
	}
	if _, err := ReadJSON(strings.NewReader("{")); err == nil {
		t.Fatal("want error for truncated JSON")
	}
}

// TestJSONDecodersRejectTrailingData: ReadJSON and DecodeTables accept
// exactly one JSON value. Data after it — a second value, garbage, a
// stray bracket — is an error, where it was once silently dropped;
// trailing white space is fine.
func TestJSONDecodersRejectTrailingData(t *testing.T) {
	for _, in := range []string{
		`{"headers":["a"],"rows":[]} trailing{`,
		`{"headers":["a"]}{"headers":["b"]}`,
		`{"headers":["a"]} ]`,
	} {
		if tb, err := ReadJSON(strings.NewReader(in)); err == nil {
			t.Errorf("ReadJSON(%q) = %#v, want an error", in, tb)
		}
	}
	for _, in := range []string{
		`[{"headers":["a"]}] ]garbage`,
		`[{"headers":["a"]}][]`,
		`[] 0`,
	} {
		if ts, err := DecodeTables(strings.NewReader(in)); err == nil {
			t.Errorf("DecodeTables(%q) = %#v, want an error", in, ts)
		}
	}
	if _, err := ReadJSON(strings.NewReader("{\"headers\":[\"a\"]}\n\t \n")); err != nil {
		t.Errorf("ReadJSON with trailing white space: %v", err)
	}
	if _, err := DecodeTables(strings.NewReader("[]\n")); err != nil {
		t.Errorf("DecodeTables with a trailing newline: %v", err)
	}
}

// TestSinks exercises the three sinks over a two-table stream; the
// text sink must match the historical fmt.Println output byte for
// byte, and the JSON stream must decode with DecodeTables.
func TestSinks(t *testing.T) {
	a, b := sampleTable(), NewTable("second", "x")
	b.AddRow(1)
	emit := func(format string) string {
		var buf bytes.Buffer
		s, err := NewSink(format, &buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, tb := range []*Table{a, b} {
			if err := s.Emit(tb); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	if got, want := emit("text"), a.String()+"\n"+b.String()+"\n"; got != want {
		t.Fatalf("text sink:\n got: %q\nwant: %q", got, want)
	}

	csvOut := emit("csv")
	if !strings.Contains(csvOut, "\n\n#table,second\n") {
		t.Fatalf("csv sink missing blank-line separator: %q", csvOut)
	}

	tables, err := DecodeTables(strings.NewReader(emit("json")))
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || !reflect.DeepEqual(tables[0], a) || !reflect.DeepEqual(tables[1], b) {
		t.Fatalf("json sink stream did not round trip: %#v", tables)
	}

	// Empty stream is still valid JSON.
	var buf bytes.Buffer
	s, _ := NewSink("json", &buf)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	tables, err = DecodeTables(&buf)
	if err != nil || len(tables) != 0 {
		t.Fatalf("empty json stream: tables=%v err=%v", tables, err)
	}

	if _, err := NewSink("yaml", &bytes.Buffer{}); err == nil {
		t.Fatal("want error for unknown format")
	}
}
