package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

// TestSmoke is the -smoke pass: 20 ops per workload through in-process
// handlers (no child process, so it also runs under -short), every answer
// checked, under 10 s in total.
func TestSmoke(t *testing.T) {
	start := time.Now()
	var buf bytes.Buffer
	if err := runSmoke(context.Background(), &buf, 1); err != nil {
		t.Fatalf("smoke pass failed: %v\n%s", err, buf.String())
	}
	for _, w := range workloads {
		if !strings.Contains(buf.String(), "smoke "+w.name) {
			t.Errorf("smoke pass skipped %s", w.name)
		}
	}
	if d := time.Since(start); d > 10*time.Second && !raceEnabled {
		t.Errorf("smoke pass took %v, want under 10s", d)
	}
}
