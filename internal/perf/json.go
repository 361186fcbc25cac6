package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Encode writes the document as deterministic, indented JSON. The same
// document always produces the same bytes (see the package comment), so
// deterministic producers can be diffed file-to-file.
func Encode(w io.Writer, d *Document) error {
	if err := d.Validate(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return fmt.Errorf("perf: encode: %w", err)
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Decode reads and validates a document. Unknown fields are tolerated
// (additive schema changes don't bump the version); an unknown or missing
// schema version is an error, and so is anything but whitespace after
// the document.
func Decode(r io.Reader) (*Document, error) {
	var d Document
	dec := json.NewDecoder(r)
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("perf: decode: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("perf: decode: trailing data after the document")
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// Load reads a document from path via Decode.
func Load(path string) (*Document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}
