package registry

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"probpref/internal/ppd"
)

func figure1Spec(name string) Spec {
	return Spec{Name: name, Dataset: "figure1"}
}

func mustOpen(t *testing.T, r *Registry, name string) *Handle {
	t.Helper()
	h, err := r.Open(name)
	if err != nil {
		t.Fatalf("Open(%q): %v", name, err)
	}
	return h
}

func TestRegisterOpenLazy(t *testing.T) {
	r := New()
	if err := r.Register(figure1Spec("f1")); err != nil {
		t.Fatal(err)
	}
	infos := r.List()
	if len(infos) != 1 || infos[0].Name != "f1" || infos[0].Loaded {
		t.Fatalf("after register: %+v", infos)
	}
	h := mustOpen(t, r, "f1")
	if h.DB() == nil {
		t.Fatal("open handle has nil DB")
	}
	if h.Name() != "f1" {
		t.Fatalf("handle name = %q", h.Name())
	}
	if h.DemoQuery() == "" {
		t.Fatal("figure1 model should carry a demo query")
	}
	in, err := r.Lookup("f1")
	if err != nil {
		t.Fatal(err)
	}
	if !in.Loaded || in.Refs != 1 || in.Items != 4 || in.Sessions == 0 {
		t.Fatalf("open info = %+v", in)
	}
	h.Close()
	h.Close() // idempotent
	if in, _ := r.Lookup("f1"); in.Refs != 0 {
		t.Fatalf("refs after close = %d", in.Refs)
	}
}

func TestPreloadBuildsEagerly(t *testing.T) {
	r := New()
	spec := figure1Spec("f1")
	spec.Preload = true
	if err := r.Register(spec); err != nil {
		t.Fatal(err)
	}
	if in, _ := r.Lookup("f1"); !in.Loaded || in.Refs != 0 {
		t.Fatalf("preloaded info = %+v", in)
	}
}

func TestRegisterValidation(t *testing.T) {
	r := New()
	cases := []Spec{
		{Name: "", Dataset: "figure1"},
		{Name: "bad name", Dataset: "figure1"},
		{Name: "a/b", Dataset: "figure1"},
		{Name: "ok", Dataset: "nope"},
		// Negative generator parameters must fail validation instead of
		// panicking inside a builder (they size slice allocations).
		{Name: "ok", Dataset: "polls", Candidates: -1},
		{Name: "ok", Dataset: "polls", Voters: -2},
		{Name: "ok", Dataset: "movielens", Movies: -1},
		{Name: "ok", Dataset: "crowdrank", Workers: -1},
	}
	for _, spec := range cases {
		if err := r.Register(spec); err == nil {
			t.Errorf("Register(%+v): want error", spec)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("failed registers should not populate the catalog (len=%d)", r.Len())
	}
}

// TestPreloadFailureRegistersNothing: a preload whose build fails must
// leave the catalog untouched — no half-built entry, no rollback window.
func TestPreloadFailureRegistersNothing(t *testing.T) {
	r := New()
	// crowdrank requires a HIT of at least 6 movies; 3 passes validation
	// but fails inside the builder.
	err := r.Register(Spec{Name: "bad", Dataset: "crowdrank", Movies: 3, Preload: true})
	if err == nil {
		t.Fatal("want build error")
	}
	if r.Len() != 0 {
		t.Fatalf("failed preload left %d entries in the catalog", r.Len())
	}
}

func TestRegisterDuplicate(t *testing.T) {
	r := New()
	if err := r.Register(figure1Spec("f1")); err != nil {
		t.Fatal(err)
	}
	err := r.Register(figure1Spec("f1"))
	if !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate register: %v, want ErrExists", err)
	}
}

func TestOpenAndDeleteNotFound(t *testing.T) {
	r := New()
	if _, err := r.Open("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Open(ghost): %v, want ErrNotFound", err)
	}
	if err := r.Delete("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete(ghost): %v, want ErrNotFound", err)
	}
}

// TestDeleteWaitsForHandles is the refcounted-eviction contract: Delete
// hides the model immediately, but the database of an in-flight handle
// survives until the handle closes — only then is the entry unloaded.
func TestDeleteWaitsForHandles(t *testing.T) {
	r := New()
	if err := r.Register(figure1Spec("f1")); err != nil {
		t.Fatal(err)
	}
	h := mustOpen(t, r, "f1")
	if err := r.Delete("f1"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Open("f1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Open after delete: %v, want ErrNotFound", err)
	}
	// The in-flight query still works against the old instance.
	db := h.DB()
	if db == nil {
		t.Fatal("handle lost its DB after Delete")
	}
	eng := &ppd.Engine{DB: db}
	if _, err := eng.Do(context.Background(), &ppd.Request{Kind: ppd.KindBool, Query: h.DemoQuery()}); err != nil {
		t.Fatalf("eval on deleted-but-open model: %v", err)
	}
	if h.e.db == nil {
		t.Fatal("entry unloaded while a handle was open")
	}
	h.Close()
	if h.e.db != nil {
		t.Fatal("entry not unloaded after last handle closed")
	}
}

func TestDeleteIdleUnloadsImmediately(t *testing.T) {
	r := New()
	spec := figure1Spec("f1")
	spec.Preload = true
	if err := r.Register(spec); err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	e := r.models["f1"]
	r.mu.Unlock()
	if err := r.Delete("f1"); err != nil {
		t.Fatal(err)
	}
	if e.db != nil {
		t.Fatal("idle delete should unload synchronously")
	}
}

func TestRegisterDB(t *testing.T) {
	r := New()
	if err := r.RegisterDB("inline", nil, ""); err == nil {
		t.Fatal("nil db should be rejected")
	}
	db, _, err := Build(figure1Spec("tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterDB("inline", db, "demo"); err != nil {
		t.Fatal(err)
	}
	in, err := r.Lookup("inline")
	if err != nil {
		t.Fatal(err)
	}
	if !in.Loaded || in.Dataset != "inline" || in.Items != 4 {
		t.Fatalf("inline info = %+v", in)
	}
	h := mustOpen(t, r, "inline")
	defer h.Close()
	if h.DB() != db || h.DemoQuery() != "demo" {
		t.Fatal("inline handle does not expose the registered db/demo")
	}
}

// TestConcurrentOpenBuildsOnce opens one cold model from many goroutines;
// the lazy build must run once and every handle must see the same DB.
func TestConcurrentOpenBuildsOnce(t *testing.T) {
	r := New()
	if err := r.Register(figure1Spec("f1")); err != nil {
		t.Fatal(err)
	}
	const n = 16
	dbs := make([]*ppd.DB, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, err := r.Open("f1")
			if err != nil {
				t.Error(err)
				return
			}
			dbs[i] = h.DB()
			h.Close()
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if dbs[i] != dbs[0] {
			t.Fatalf("handle %d saw a different DB instance", i)
		}
	}
}

// TestConcurrentRegisterEvictOpen hammers the catalog with racing
// register/open/delete/list cycles; run under -race this is the registry's
// concurrency safety net.
func TestConcurrentRegisterEvictOpen(t *testing.T) {
	r := New()
	const (
		workers = 8
		rounds  = 30
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("m%d", w%4) // contend on 4 names
			for i := 0; i < rounds; i++ {
				switch i % 4 {
				case 0:
					err := r.Register(figure1Spec(name))
					if err != nil && !errors.Is(err, ErrExists) {
						t.Errorf("register: %v", err)
					}
				case 1:
					h, err := r.Open(name)
					if err == nil {
						if h.DB() == nil {
							t.Error("open handle with nil DB")
						}
						h.Close()
					} else if !errors.Is(err, ErrNotFound) {
						t.Errorf("open: %v", err)
					}
				case 2:
					r.List()
					r.Names()
				case 3:
					if err := r.Delete(name); err != nil && !errors.Is(err, ErrNotFound) {
						t.Errorf("delete: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestManifestParse(t *testing.T) {
	good := `{"models": [
		{"name": "f1", "dataset": "figure1", "preload": true},
		{"name": "p1", "dataset": "polls", "candidates": 6, "voters": 4, "seed": 7}
	]}`
	m, err := ParseManifest(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Models) != 2 || m.Models[1].Candidates != 6 {
		t.Fatalf("parsed manifest = %+v", m)
	}

	bad := []string{
		`{}`, // no models
		`{"models": []}`,
		`{"models": [{"name": "f1", "dataset": "nope"}]}`,
		`{"models": [{"name": "f1", "dataset": "figure1"}, {"name": "f1", "dataset": "polls"}]}`,
		`{"models": [{"name": "f1", "dataset": "figure1", "typo_field": 1}]}`,
		`not json`,
	}
	for _, src := range bad {
		if _, err := ParseManifest(strings.NewReader(src)); err == nil {
			t.Errorf("ParseManifest(%q): want error", src)
		}
	}
}

func TestManifestApply(t *testing.T) {
	m, err := ParseManifest(strings.NewReader(
		`{"models": [
			{"name": "f1", "dataset": "figure1", "preload": true},
			{"name": "p1", "dataset": "polls", "candidates": 6, "voters": 4}
		]}`))
	if err != nil {
		t.Fatal(err)
	}
	r := New()
	if err := r.Apply(m); err != nil {
		t.Fatal(err)
	}
	f1, _ := r.Lookup("f1")
	p1, _ := r.Lookup("p1")
	if !f1.Loaded {
		t.Fatalf("preloaded f1 not loaded: %+v", f1)
	}
	if p1.Loaded {
		t.Fatalf("lazy p1 loaded at apply time: %+v", p1)
	}
	h := mustOpen(t, r, "p1")
	defer h.Close()
	if got := h.DB().M(); got != 6 {
		t.Fatalf("polls model has m=%d items, want 6", got)
	}
}

func TestLoadManifestMissingFile(t *testing.T) {
	if _, err := LoadManifest("testdata/does-not-exist.json"); err == nil {
		t.Fatal("want error for missing manifest file")
	}
}
