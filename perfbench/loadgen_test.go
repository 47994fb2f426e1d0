package main

import (
	"errors"
	"math/rand"
	"testing"
	"time"
)

func TestPoissonScheduleFixedCountSortedInWindow(t *testing.T) {
	dur := 10 * time.Second
	a := poissonSchedule(rand.New(rand.NewSource(5)), 200, dur)
	b := poissonSchedule(rand.New(rand.NewSource(5)), 200, dur)
	if len(a) != 200 {
		t.Fatalf("%d arrivals, want 200", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("the same seed must give the same schedule")
		}
		if a[i] < 0 || a[i] >= dur || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("arrival %d = %v out of order or window", i, a[i])
		}
	}
}

func TestServeScheduleRateAndTenants(t *testing.T) {
	reads := serveReads()
	reqs := serveSchedule(9, 20, 10*time.Second, reads)
	if len(reqs) != 200 {
		t.Fatalf("%d requests, want rate×seconds = 200", len(reqs))
	}
	perTenant := map[int]int{}
	for i, q := range reqs {
		perTenant[q.tenant]++
		if i > 0 && q.due < reqs[i-1].due {
			t.Fatal("requests must be sorted by due time")
		}
		if q.st == nil && q.tenant != 0 {
			t.Fatal("only the first tenant appends")
		}
	}
	if perTenant[0] != 100 || perTenant[1] != 100 {
		t.Errorf("per-tenant counts %v", perTenant)
	}
	again := serveSchedule(9, 20, 10*time.Second, reads)
	for i := range reqs {
		if reqs[i].sql != again[i].sql || reqs[i].due != again[i].due {
			t.Fatal("the same seed must give the same requests")
		}
	}
}

func TestOpenLoopLatenessAndLimit(t *testing.T) {
	ms := time.Millisecond
	st := &statement{op: "vpct"}
	reqs := []request{
		{st: st, due: 0},        // on time, fast
		{st: st, due: 10 * ms},  // sent late: the generator fell behind
		{st: st, due: 20 * ms},  // queued behind a stall: slow from its due time
		{st: st, due: 30 * ms},  // refused
		{st: nil, due: 40 * ms}, // an append
	}
	outs := []outcome{
		{req: &reqs[0], sent: 0, done: 5 * ms},
		{req: &reqs[1], sent: 14 * ms, done: 20 * ms},
		{req: &reqs[2], sent: 20 * ms, done: 80 * ms},
		{req: &reqs[3], sent: 31 * ms, done: 32 * ms, err: errors.New("PCT210")},
		{req: &reqs[4], sent: 40 * ms, done: 41 * ms},
	}
	s := summarize(outs, 50*ms)
	if s.failed != 1 {
		t.Errorf("failed = %d, want 1", s.failed)
	}
	// Within the limit: requests 0, 1 and 4; 2 took 60ms from its due time
	// although its wire call took 60ms too; 3 was refused.
	if s.within != 3 {
		t.Errorf("within = %d, want 3", s.within)
	}
	wantLat := []time.Duration{5 * ms, 10 * ms, 60 * ms, 1 * ms}
	for i, l := range s.all {
		if l != wantLat[i] {
			t.Errorf("latency %d = %v, want %v (from due time)", i, l, wantLat[i])
		}
	}
	wantLate := []time.Duration{0, 4 * ms, 0, 1 * ms, 0}
	for i, l := range s.late {
		if l != wantLate[i] {
			t.Errorf("lateness %d = %v, want %v", i, l, wantLate[i])
		}
	}
	if len(s.byKind["vpct"]) != 3 || len(s.byKind["append"]) != 1 {
		t.Errorf("by kind = %v", s.byKind)
	}
	if s.window != 80*ms {
		t.Errorf("window = %v, want 80ms (the last response)", s.window)
	}
	if got := s.do[1]; got != 6*ms {
		t.Errorf("wire time of request 1 = %v, want 6ms (send to response)", got)
	}
}
