package main

import (
	"testing"
	"time"
)

func TestSplitLaps(t *testing.T) {
	for _, c := range []struct {
		n, lapOps int
		want      [][2]int
	}{
		{112, 56, [][2]int{{0, 56}, {56, 112}}},
		{130, 56, [][2]int{{0, 56}, {56, 130}}}, // the remainder joins the last lap
		{20, 56, [][2]int{{0, 20}}},             // the smoke pass: one short lap
	} {
		laps := splitLaps(c.n, c.lapOps)
		if len(laps) != len(c.want) {
			t.Fatalf("splitLaps(%d, %d): %d laps, want %d", c.n, c.lapOps, len(laps), len(c.want))
		}
		for i, l := range laps {
			if l.lo != c.want[i][0] || l.hi != c.want[i][1] {
				t.Errorf("splitLaps(%d, %d)[%d] = [%d, %d), want %v", c.n, c.lapOps, i, l.lo, l.hi, c.want[i])
			}
		}
	}
}

// TestQuietLapsKeepsTheFastestOfEachGroup: a lap a burst fell into (a long
// wall time) is dropped, group by group, and a lap an aborted run never
// reached (no wall time) is never kept.
func TestQuietLapsKeepsTheFastestOfEachGroup(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	laps := []lap{
		{group: 0, wall: ms(300)}, {group: 1, wall: ms(500)},
		{group: 0, wall: ms(900)}, {group: 1, wall: ms(450)},
		{group: 0, wall: ms(280)}, {group: 1, wall: ms(1400)},
		{group: 0, wall: ms(310)}, {group: 1, wall: 0},
	}
	got := make(map[int][]time.Duration)
	for _, l := range quietLaps(laps, 2) {
		got[l.group] = append(got[l.group], l.wall)
	}
	want := map[int][]time.Duration{0: {ms(280), ms(300)}, 1: {ms(450), ms(500)}}
	for g, w := range want {
		if len(got[g]) != len(w) || got[g][0] != w[0] || got[g][1] != w[1] {
			t.Errorf("group %d: kept %v, want %v", g, got[g], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("kept groups %v, want %v", got, want)
	}
}
