package main

import (
	"bytes"
	"testing"

	"probpref/internal/ppd"
)

// genAll generates every workload's sequence on small relations.
func genAll(t *testing.T, seed int64) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	dbs := make(map[int]*ppd.DB)
	for _, w := range workloads {
		voters := min(w.voters, smokeVoters)
		if dbs[voters] == nil {
			db, err := pollsDB(voters)
			if err != nil {
				t.Fatal(err)
			}
			dbs[voters] = db
		}
		warm, seq, err := w.gen(seed, dbs[voters], 140) // two and a half hot passes
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		out[w.name] = append(encodeOps(warm), encodeOps(seq)...)
	}
	return out
}

func TestGeneratorIsDeterministic(t *testing.T) {
	a, b, other := genAll(t, 7), genAll(t, 7), genAll(t, 8)
	for _, w := range workloads {
		if len(a[w.name]) == 0 {
			t.Errorf("%s: empty sequence", w.name)
		}
		if !bytes.Equal(a[w.name], b[w.name]) {
			t.Errorf("%s: the same seed generated different op sequences", w.name)
		}
		if bytes.Equal(a[w.name], other[w.name]) {
			t.Errorf("%s: seeds 7 and 8 generated the same op sequence", w.name)
		}
	}
	if !bytes.Equal(a["serve_hot"], a["cluster_hot"]) {
		t.Errorf("cluster_hot must replay serve_hot's exact op sequence")
	}
}

func TestIngestShape(t *testing.T) {
	db, err := pollsDB(16)
	if err != nil {
		t.Fatal(err)
	}
	_, seq, err := genIngest(3, db, 64)
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[string]bool)
	for i, o := range seq {
		if want := i%ingestEvery == ingestEvery-1; (o.class == classIngest) != want {
			t.Fatalf("op %d: class %s, ingest expected: %v", i, o.class, want)
		}
		if o.class != classIngest {
			continue
		}
		if len(o.ingest.Sessions) != ingestBatch {
			t.Fatalf("op %d: batch of %d sessions, want %d", i, len(o.ingest.Sessions), ingestBatch)
		}
		for _, s := range o.ingest.Sessions {
			k := s.Key[0] + "|" + s.Key[1]
			if keys[k] {
				t.Fatalf("op %d: session key %v generated twice", i, s.Key)
			}
			keys[k] = true
		}
	}
}

// The first-touch pass of the issue-once workloads must not warm anything the
// measured sequence asks for.
func TestTouchPassIsDisjoint(t *testing.T) {
	for _, name := range []string{"serve_cold", "serve_sampled"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		warm, seq, err := w.gen(3, nil, w.ops)
		if err != nil {
			t.Fatal(err)
		}
		if len(warm) == 0 || len(seq) != w.ops {
			t.Fatalf("%s: %d touch ops and %d measured, want some and %d", name, len(warm), len(seq), w.ops)
		}
		seen := make(map[string]bool)
		for _, o := range append(warm, seq...) {
			if q := o.reqs[0].Query; seen[q] {
				t.Errorf("%s: query issued twice: %s", name, q)
			} else {
				seen[q] = true
			}
		}
	}
}
