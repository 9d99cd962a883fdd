package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunPrintsInventory is the command's smoke test: a small world's
// inventory has a host total and every section.
func TestRunPrintsInventory(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scale", "0.00002"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"hosts over 2^", "country populations", "ASes by host count", "paper profile networks", "Alibaba"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("inventory lacks %q:\n%s", want, out.String())
		}
	}
}
