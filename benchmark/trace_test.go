package main

import "testing"

// TestSelfTimeOnAHandBuiltTree checks both kinds of child: layers replayed
// after their parent returned are subtracted whole; children that ran
// inside the parent are subtracted by the interval they cover together.
func TestSelfTimeOnAHandBuiltTree(t *testing.T) {
	spans := []span{
		// A peeled ladder: each deeper layer ran after the one above.
		{Req: 1, ID: 1, Name: "server.http", StartNS: 0, EndNS: 100},
		{Req: 1, ID: 2, Parent: 1, Name: "server.do", StartNS: 110, EndNS: 190},
		{Req: 1, ID: 3, Parent: 2, Name: "ppd.do", StartNS: 200, EndNS: 260},
		// True children of ppd.do, two of them overlapping (worker pool).
		{Req: 1, ID: 4, Parent: 3, Name: "server.cache.get", StartNS: 205, EndNS: 215},
		{Req: 1, ID: 5, Parent: 3, Name: "server.cache.get", StartNS: 210, EndNS: 220},
		{Req: 1, ID: 6, Parent: 3, Name: "server.cache.put", StartNS: 240, EndNS: 245},
		// A replay under ppd.do, after it returned.
		{Req: 1, ID: 7, Parent: 3, Name: "solver.solve", StartNS: 300, EndNS: 325},
		// A detail span: a root, subtracted from nothing.
		{Req: 1, ID: 8, Name: "ppd.ground", StartNS: 400, EndNS: 430},
		// A coordinator whose hedged fetch outlives it.
		{Req: 2, ID: 9, Name: "cluster.http", StartNS: 1000, EndNS: 1100},
		{Req: 2, ID: 10, Parent: 9, Name: "cluster.fetch", StartNS: 1010, EndNS: 1080},
		{Req: 2, ID: 11, Parent: 9, Name: "cluster.fetch", StartNS: 1060, EndNS: 1300},
	}
	want := map[int]int64{
		1:  100 - 80,
		2:  80 - 60,
		3:  60 - (15 + 5) - 25, // gets cover 205..220, put 240..245, replay 25
		4:  10,
		7:  25,
		8:  30,
		9:  100 - 90, // fetches cover 1010..1100 of the parent's 1000..1100
		11: 240,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d (%s) = %d, want %d", id, spans[id-1].Name, got[id], w)
		}
	}
}
