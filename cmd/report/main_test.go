package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/proto"
	"repro/internal/results"
	"repro/internal/world"
)

// TestRefusesAnotherWorldsDataset: a dataset collected at -scale 0.0003 and
// reported at the default scale is refused — exit status 1, nothing on
// stdout, a message naming -seed and -scale; at its own scale it is
// accepted.
func TestRefusesAnotherWorldsDataset(t *testing.T) {
	ctx := context.Background()
	study, err := core.New(ctx, experiment.Config{
		WorldSpec: world.Spec{Seed: 2020, Scale: 0.0003},
		Trials:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := study.Run(ctx); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "d.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := study.DS.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	if code := run(ctx, []string{"-in", path}, &stdout, &stderr); code != 1 {
		t.Fatalf("report at the default scale exited %d, want 1 (stderr %q)", code, stderr.String())
	}
	if msg := stderr.String(); !strings.Contains(msg, "-seed") || !strings.Contains(msg, "-scale") {
		t.Errorf("refusal does not name -seed and -scale: %q", msg)
	}
	if stdout.Len() != 0 {
		t.Errorf("a refused dataset printed %d bytes of report", stdout.Len())
	}

	stdout.Reset()
	stderr.Reset()
	if code := run(ctx, []string{"-in", path, "-scale", "0.0003"}, &stdout, &stderr); code != 0 {
		t.Fatalf("report at the dataset's scale exited %d: %s", code, stderr.String())
	}
	if stdout.Len() == 0 {
		t.Error("report at the dataset's scale printed nothing")
	}
}

// TestCheckWorld holds each of checkWorld's tests to one-row scans: an L7
// success must be a host of the world offering the scan's protocol — not a
// host without the service, not an address with no host — and the scans'
// target counts must agree and fit in the world's space (a blocklisted run
// probes fewer). Rows without a handshake are not checked.
func TestCheckWorld(t *testing.T) {
	w, err := world.Build(context.Background(), world.TestSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	var httpOnly, empty ip.Addr
	for _, h := range w.Hosts() {
		if h.Services.Has(proto.HTTP) && !h.Services.Has(proto.SSH) {
			httpOnly = h.Addr
			break
		}
	}
	for a := httpOnly.Add(1); ; a = a.Add(1) {
		if _, host := w.Lookup(a); !host {
			empty = a
			break
		}
	}
	space := w.SpaceSize()
	// scans builds a one-trial dataset of US1 scans, one per protocol given,
	// each with targets and the one row rec.
	scans := func(rec results.HostRecord, targets uint64, ps ...proto.Protocol) *results.Dataset {
		ds := results.NewDataset(origin.Set{origin.US1}, 1)
		for _, p := range ps {
			s := results.NewScanResult(origin.US1, p, 0)
			s.Targets = targets
			s.Add(rec)
			if err := ds.Put(s); err != nil {
				t.Fatal(err)
			}
		}
		return ds
	}
	one := func(p proto.Protocol, targets uint64, rec results.HostRecord) *results.Dataset {
		return scans(rec, targets, p)
	}
	noHandshake := results.HostRecord{Addr: empty, ProbeMask: 1}
	disagree := scans(noHandshake, space, proto.HTTP, proto.SSH)
	disagree.Scan(origin.US1, proto.SSH, 0).Targets--
	for _, c := range []struct {
		name string
		ds   *results.Dataset
		ok   bool
	}{
		{"host offering the protocol", one(proto.HTTP, space, results.HostRecord{Addr: httpOnly, ProbeMask: 1, L7: true}), true},
		{"blocklisted run, fewer targets", one(proto.HTTP, space-256, results.HostRecord{Addr: httpOnly, ProbeMask: 1, L7: true}), true},
		{"one target more than the space", one(proto.HTTP, space+1, results.HostRecord{Addr: httpOnly, ProbeMask: 1, L7: true}), false},
		{"scans agreeing on targets", scans(noHandshake, space-1, proto.HTTP, proto.SSH), true},
		{"scans disagreeing on targets", disagree, false},
		{"host without the protocol", one(proto.SSH, space, results.HostRecord{Addr: httpOnly, ProbeMask: 1, L7: true}), false},
		{"address with no host", one(proto.HTTP, space, results.HostRecord{Addr: empty, ProbeMask: 1, L7: true}), false},
		{"no handshake", one(proto.SSH, space, noHandshake), true},
	} {
		if err := checkWorld(w, c.ds); (err == nil) != c.ok {
			t.Errorf("%s: checkWorld = %v, want ok %v", c.name, err, c.ok)
		}
	}
}
