package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestRunScaleBenchSmall runs the modern-scale sweep end to end at toy
// sizes and checks the invariants the real artifact is read for: both
// layouts per sweep point, identical refs/packet between them (the
// charge identity), sane byte accounting, and a parseable JSON file.
func TestRunScaleBenchSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs wall-clock benchmarks")
	}
	path := filepath.Join(t.TempDir(), "scale.json")
	if err := runScaleBench(path, 7, []int{3000}, []int{1500}); err != nil {
		t.Fatalf("runScaleBench: %v", err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var records []scaleRecord
	if err := json.Unmarshal(buf, &records); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if len(records) != 4 {
		t.Fatalf("got %d records, want 4 (2 families x 2 layouts)", len(records))
	}
	byKey := map[string]scaleRecord{}
	for _, r := range records {
		byKey[r.Family+"/"+r.Layout] = r
		if r.TrieIndexBytes <= 0 || r.BytesPerPrefix <= 0 || r.SlotBytes <= 0 {
			t.Errorf("%s: non-positive byte accounting: %+v", r.Name, r)
		}
		if r.NsPerOp <= 0 || r.RefsPerPacket <= 0 {
			t.Errorf("%s: non-positive measurement: %+v", r.Name, r)
		}
		if r.TotalBytes != r.SlotBytes+r.TrieIndexBytes+r.ResumeBytes {
			t.Errorf("%s: TotalBytes does not add up", r.Name)
		}
		if r.TotalBytesPerPrefix <= r.BytesPerPrefix {
			t.Errorf("%s: whole snapshot %.2f B/prefix, trie index alone %.2f", r.Name, r.TotalBytesPerPrefix, r.BytesPerPrefix)
		}
	}
	for _, fam := range []string{"IPv4", "IPv6"} {
		flat, okF := byKey[fam+"/flat"]
		comp, okC := byKey[fam+"/compressed"]
		if !okF || !okC {
			t.Fatalf("%s: missing a layout row", fam)
		}
		// Same routes, same packets, same charge identity: the paper
		// metric must be layout-invariant.
		if flat.RefsPerPacket != comp.RefsPerPacket {
			t.Errorf("%s: refs/packet differs across layouts: flat %v vs compressed %v",
				fam, flat.RefsPerPacket, comp.RefsPerPacket)
		}
		if flat.Entries != comp.Entries {
			t.Errorf("%s: entry count differs across layouts", fam)
		}
		if comp.DictBytes <= 0 {
			t.Errorf("%s: compressed row has no value arrays", fam)
		}
	}
}

// TestParseCountList pins the flag parsing, including the optional empty
// IPv6 axis.
func TestParseCountList(t *testing.T) {
	got, err := parseCountList("-scalebench", " 100000, 1000000 ")
	if err != nil || len(got) != 2 || got[0] != 100000 || got[1] != 1000000 {
		t.Fatalf("parseCountList = %v, %v", got, err)
	}
	if got, err := parseCountList("-scalev6", ""); err != nil || got != nil {
		t.Fatalf("empty list = %v, %v; want nil, nil", got, err)
	}
	if _, err := parseCountList("-scalebench", "10,zero"); err == nil {
		t.Fatal("junk count accepted")
	}
	if _, err := parseCountList("-scalebench", "0"); err == nil {
		t.Fatal("zero count accepted")
	}
}
