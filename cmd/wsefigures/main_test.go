package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestEveryRowPrints: every catalogue ID prints under Tiny() with its ID on
// the first line, -csv writes one file per line figure, and -fig all is the
// per-ID outputs concatenated in catalogue order.
func TestEveryRowPrints(t *testing.T) {
	cfg := experiments.Tiny()
	dir := t.TempDir()
	var each bytes.Buffer
	for _, e := range experiments.Catalogue {
		var out bytes.Buffer
		if err := run(&out, cfg, e.ID, dir); err != nil {
			t.Fatalf("-fig %s: %v", e.ID, err)
		}
		if first, _, _ := strings.Cut(out.String(), "\n"); !strings.Contains(first, e.ID) {
			t.Errorf("-fig %s: first line %q does not carry the ID", e.ID, first)
		}
		_, err := os.Stat(filepath.Join(dir, e.ID+".csv"))
		if wrote := err == nil; wrote != (e.Sweep != nil) {
			t.Errorf("-fig %s -csv: wrote a CSV = %v, is a line figure = %v", e.ID, wrote, e.Sweep != nil)
		}
		each.Write(out.Bytes())
	}
	var all bytes.Buffer
	if err := run(&all, cfg, "all", ""); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(all.Bytes(), each.Bytes()) {
		t.Errorf("-fig all (%d bytes) is not the concatenation of the per-ID outputs (%d bytes)", all.Len(), each.Len())
	}
}

func TestUnknownRowListsTheCatalogue(t *testing.T) {
	err := run(&bytes.Buffer{}, experiments.Tiny(), "nope", "")
	if err == nil {
		t.Fatal("-fig nope succeeded")
	}
	for _, id := range experiments.IDs() {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("the error does not list %s: %v", id, err)
		}
	}
}
