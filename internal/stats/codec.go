package stats

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Table encoders and decoders. The text form (Table.String) stays the
// human-facing default; CSV and JSON are the machine-readable sinks
// used by cmd/experiments -format. Both round-trip: ReadCSV/ReadJSON
// reproduce the encoded table exactly.

// titleMarker tags the CSV record carrying the table title, so a CSV
// table round-trips without colliding with ordinary two-column rows.
const titleMarker = "#table"

// WriteCSV encodes the table as CSV: an optional ["#table", title]
// record, the header record, then one record per row. The title record
// is written for an untitled table too when its header record would
// read back as one. A record holding one empty field is written as
// `""`: encoding/csv writes it as a blank line, which readers skip.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	write := func(rec []string) error {
		if len(rec) == 1 && rec[0] == "" {
			cw.Flush()
			if err := cw.Error(); err != nil {
				return err
			}
			_, err := io.WriteString(w, "\"\"\n")
			return err
		}
		return cw.Write(rec)
	}
	if t.Title != "" || (len(t.Headers) == 2 && t.Headers[0] == titleMarker) {
		if err := write([]string{titleMarker, t.Title}); err != nil {
			return err
		}
	}
	if err := write(t.Headers); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV decodes one WriteCSV-encoded table.
func ReadCSV(r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // ragged rows are legal in Table
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("stats: reading CSV table: %w", err)
	}
	t := &Table{}
	if len(recs) > 0 && len(recs[0]) == 2 && recs[0][0] == titleMarker {
		t.Title = recs[0][1]
		recs = recs[1:]
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("stats: CSV table missing header record")
	}
	t.Headers = recs[0]
	if len(recs) > 1 {
		t.Rows = recs[1:]
	}
	return t, nil
}

// WriteJSON encodes the table as one indented JSON object.
func (t *Table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// ReadJSON decodes one WriteJSON-encoded table. The input must hold
// that one JSON value and nothing after it but white space.
func ReadJSON(r io.Reader) (*Table, error) {
	var t Table
	if err := decodeOne(r, &t); err != nil {
		return nil, fmt.Errorf("stats: reading JSON table: %w", err)
	}
	return &t, nil
}

// DecodeTables decodes the JSON array emitted by the JSON sink
// (cmd/experiments -format json) back into tables. Like ReadJSON it
// rejects data after the array.
func DecodeTables(r io.Reader) ([]*Table, error) {
	var ts []*Table
	if err := decodeOne(r, &ts); err != nil {
		return nil, fmt.Errorf("stats: reading JSON table stream: %w", err)
	}
	return ts, nil
}

// decodeOne decodes the single JSON value r holds into v: a second
// value, or anything else but white space after the first, is an error
// rather than silently ignored.
func decodeOne(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("unexpected data after the JSON value")
	}
	return nil
}
