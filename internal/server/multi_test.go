package server

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"probpref/internal/ppd"
	"probpref/internal/registry"
)

// multiService builds a service over a registry holding two models built
// from the *identical* figure1 spec — the worst case for cache-tenant
// confusion, since every inference group of model "a" has a byte-identical
// GroupKey in model "b".
func multiService(t *testing.T, cfg Config) *Service {
	t.Helper()
	reg := registry.New()
	for _, name := range []string{"a", "b"} {
		if err := reg.Register(registry.Spec{Name: name, Dataset: "figure1"}); err != nil {
			t.Fatal(err)
		}
	}
	return NewMulti(reg, cfg)
}

// TestCacheNamespaceIsolation proves per-model cache isolation: the same
// query on two identical models must not share solve-cache entries, while
// re-asking on the same model must hit.
func TestCacheNamespaceIsolation(t *testing.T) {
	svc := multiService(t, Config{})
	ctx := context.Background()

	brA, err := boolBatch(ctx, svc, "a", []string{q1})
	if err != nil {
		t.Fatal(err)
	}
	if brA.CacheHits != 0 || brA.Solved == 0 {
		t.Fatalf("cold model a: hits=%d solved=%d, want fresh solves", brA.CacheHits, brA.Solved)
	}

	brB, err := boolBatch(ctx, svc, "b", []string{q1})
	if err != nil {
		t.Fatal(err)
	}
	if brB.CacheHits != 0 {
		t.Fatalf("model b observed %d cross-tenant cache hits", brB.CacheHits)
	}
	if brB.Solved != brA.Solved {
		t.Fatalf("model b solved %d groups, want %d (same dataset, own namespace)", brB.Solved, brA.Solved)
	}

	brA2, err := boolBatch(ctx, svc, "a", []string{q1})
	if err != nil {
		t.Fatal(err)
	}
	if brA2.Solved != 0 || brA2.CacheHits != brA.Solved {
		t.Fatalf("warm model a: hits=%d solved=%d, want all %d groups from cache",
			brA2.CacheHits, brA2.Solved, brA.Solved)
	}

	// Both tenants answered from their own entries, so the answers agree.
	if pa, pb := brA.Responses[0].Prob, brB.Responses[0].Prob; math.Abs(pa-pb) > 1e-12 {
		t.Fatalf("identical models disagree: %v vs %v", pa, pb)
	}
}

// TestSingleQueryPathNamespacing covers the non-batch path (Do),
// whose engine consults the cache directly through the namespaced adapter.
func TestSingleQueryPathNamespacing(t *testing.T) {
	svc := multiService(t, Config{})
	ctx := context.Background()
	if _, err := doBool(ctx, svc, "a", q1); err != nil {
		t.Fatal(err)
	}
	resB, err := doBool(ctx, svc, "b", q1)
	if err != nil {
		t.Fatal(err)
	}
	if resB.CacheHits != 0 {
		t.Fatalf("model b saw %d cross-tenant cache hits on the single-query path", resB.CacheHits)
	}
	resB2, err := doBool(ctx, svc, "b", q1)
	if err != nil {
		t.Fatal(err)
	}
	if resB2.CacheHits == 0 {
		t.Fatal("repeat on model b should hit its own namespace")
	}
}

func TestUnknownModel(t *testing.T) {
	svc := multiService(t, Config{})
	ctx := context.Background()
	if _, err := doBool(ctx, svc, "ghost", q1); !errors.Is(err, registry.ErrNotFound) {
		t.Fatalf("bool on ghost: %v, want ErrNotFound", err)
	}
	if _, err := boolBatch(ctx, svc, "ghost", []string{q1}); !errors.Is(err, registry.ErrNotFound) {
		t.Fatalf("bool batch on ghost: %v, want ErrNotFound", err)
	}
	if _, err := doTopK(ctx, svc, "ghost", q1, 2, 1); !errors.Is(err, registry.ErrNotFound) {
		t.Fatalf("topk on ghost: %v, want ErrNotFound", err)
	}
	topk := &ppd.Request{Kind: ppd.KindTopK, Query: q1, Model: "ghost", K: 2}
	if _, err := svc.DoBatch(ctx, []*ppd.Request{topk}); !errors.Is(err, registry.ErrNotFound) {
		t.Fatalf("topk batch on ghost: %v, want ErrNotFound", err)
	}
}

func TestDefaultModelCompat(t *testing.T) {
	svc := figure1Service(t, Config{})
	if svc.DB() == nil {
		t.Fatal("single-db service lost its DB accessor")
	}
	res1, err := doBool(context.Background(), svc, "", q1)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := doBool(context.Background(), svc, DefaultModel, q1)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Prob != res2.Prob {
		t.Fatalf("unqualified and default-qualified answers differ: %v vs %v", res1.Prob, res2.Prob)
	}
	if res2.CacheHits == 0 {
		t.Fatal("default-qualified repeat should share the unqualified request's cache namespace")
	}
}

// TestConcurrentRegisterEvictDuringQueries races query traffic against
// catalog churn: workers evaluate on a model that other workers keep
// deleting and re-registering. Queries must either answer correctly or
// fail with ErrNotFound — never crash, race, or cross tenants.
func TestConcurrentRegisterEvictDuringQueries(t *testing.T) {
	svc := multiService(t, Config{Workers: 2})
	reg := svc.Registry()
	// Model "b" is never churned; it provides the ground-truth probability.
	ref, err := doBool(context.Background(), svc, "b", q1)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Prob
	const (
		queryWorkers = 4
		churnRounds  = 25
	)
	ctx := context.Background()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < queryWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := doBool(ctx, svc, "a", q1)
				if err != nil {
					if !errors.Is(err, registry.ErrNotFound) {
						t.Errorf("eval during churn: %v", err)
						return
					}
					continue
				}
				if math.Abs(res.Prob-want) > 1e-12 {
					t.Errorf("eval during churn: prob %v, want %v", res.Prob, want)
					return
				}
			}
		}()
	}
	for i := 0; i < churnRounds; i++ {
		if err := reg.Delete("a"); err != nil && !errors.Is(err, registry.ErrNotFound) {
			t.Errorf("delete: %v", err)
		}
		if err := reg.Register(registry.Spec{Name: "a", Dataset: "figure1"}); err != nil && !errors.Is(err, registry.ErrExists) {
			t.Errorf("register: %v", err)
		}
	}
	close(stop)
	wg.Wait()
}
