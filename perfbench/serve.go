package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/server"
	"repro/pctagg"
)

// The serve_open_loop statements: a small-group Vpct, a plain GROUP BY and
// a 2,000-row projection of sales_recent (the first 2,000 sales rows,
// copied at set-up), whose cost is mostly wire encoding. Appends go to
// sales_stream, which no read touches, so every read result is fixed and
// checkable while the appends still take the server's DML write lock.
func serveReads() []statement {
	return []statement{
		pqSalesDweek.vpct(),
		{label: "sales state sum/count", op: "plain", sql: "SELECT state, sum(salesAmt), count(*) FROM sales GROUP BY state"},
		{label: "sales_recent 2000 rows", op: "proj", sql: "SELECT transactionId, itemId, store, salesAmt FROM sales_recent"},
	}
}

const salesSchema = "(transactionId INTEGER, itemId INTEGER, dweek INTEGER, monthNo INTEGER, store INTEGER, city INTEGER, state INTEGER, dept INTEGER, salesAmt INTEGER)"

const (
	serveTenants    = 2
	serveAppendRows = 10
	// serveAppendShare is the share of the first tenant's requests that
	// are appends.
	serveAppendShare = 0.2
)

// The serve read mix weights, in serveReads order.
var serveWeights = []float64{0.4, 0.3, 0.3}

// request is one scheduled open-loop request.
type request struct {
	tenant int
	st     *statement // nil for an append
	sql    string
	due    time.Duration // from the window start
}

func (q request) kind() string {
	if q.st == nil {
		return "append"
	}
	return q.st.op
}

// poissonSchedule draws n arrival offsets of a Poisson process over dur:
// conditioned on its count, a Poisson process's arrival times are sorted
// independent uniform draws. Fixing the count keeps the offered load, and so
// the goodput, the same on every seed.
func poissonSchedule(rng *rand.Rand, n int, dur time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(dur)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// serveSchedule builds both tenants' requests, sorted by due time. Each
// tenant sends rate/serveTenants statements per second. The mix is exact:
// each tenant's requests are a seeded shuffle of fixed counts per
// statement, so every seed offers the same work.
func serveSchedule(seed int64, rate float64, dur time.Duration, reads []statement) []request {
	rng := rand.New(rand.NewSource(seed))
	app := &salesAppender{table: "sales_stream", card: salesCards()}
	perTenant := int(math.Round(rate * dur.Seconds() / serveTenants))
	var out []request
	for t := 0; t < serveTenants; t++ {
		var kinds []int // index into reads; -1 for an append
		nApp := 0
		if t == 0 {
			nApp = int(math.Round(serveAppendShare * float64(perTenant)))
		}
		for i := 0; i < nApp; i++ {
			kinds = append(kinds, -1)
		}
		for i := range reads {
			n := int(math.Round(serveWeights[i] * float64(perTenant-nApp)))
			if i == len(reads)-1 {
				n = perTenant - len(kinds)
			}
			for j := 0; j < n; j++ {
				kinds = append(kinds, i)
			}
		}
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		for i, due := range poissonSchedule(rng, perTenant, dur) {
			q := request{tenant: t, due: due}
			if k := kinds[i]; k < 0 {
				q.sql = app.insert(rng, serveAppendRows)
			} else {
				q.st, q.sql = &reads[k], reads[k].sql
			}
			out = append(out, q)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

// outcome is what happened to one request, timed from the window start.
type outcome struct {
	req        *request
	sent, done time.Duration
	err        error
}

// late is how far behind schedule the generator sent the request.
func (o outcome) late() time.Duration { return o.sent - o.req.due }

// latency counts from when the request was due, so a stall also charges
// the requests it delays.
func (o outcome) latency() time.Duration { return o.done - o.req.due }

// openLoopStats summarizes outcomes against a latency limit: completed
// latencies by op type and overall, generator lateness, the number of
// completions within the limit, failures (refused or failed requests,
// which also miss the limit) and the measured window.
type openLoopStats struct {
	byKind    map[string]samples
	all, late samples
	do        samples // send to response
	within    int
	failed    int
	// window runs from the start of the schedule to the last response.
	window time.Duration
}

func summarize(outs []outcome, limit time.Duration) openLoopStats {
	s := openLoopStats{byKind: map[string]samples{}}
	for _, o := range outs {
		s.window = max(s.window, o.done)
		s.late = append(s.late, o.late())
		if o.err != nil {
			s.failed++
			continue
		}
		lat := o.latency()
		s.all = append(s.all, lat)
		s.do = append(s.do, o.done-o.sent)
		s.byKind[o.req.kind()] = append(s.byKind[o.req.kind()], lat)
		if lat <= limit {
			s.within++
		}
	}
	return s
}

// serveEnv is a running server over a loaded DB with one pipelined
// connection per tenant.
type serveEnv struct {
	db      *pctagg.DB
	srv     *server.Server
	clients []*server.Client
	want    map[string]uint64 // read SQL → in-process result checksum
}

func openServe(seed int64, reads []statement) (*serveEnv, time.Duration, error) {
	db := pctagg.Open()
	ld, err := load(db.Engine().Catalog(), []string{"sales"}, seed)
	if err != nil {
		return nil, 0, err
	}
	for _, ddl := range []string{
		"CREATE TABLE sales_stream " + salesSchema,
		"CREATE TABLE sales_recent " + salesSchema,
		"INSERT INTO sales_recent SELECT * FROM sales WHERE transactionId <= 2000",
	} {
		if _, err := db.Exec(ddl); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", ddl, err)
		}
	}
	env := &serveEnv{db: db, want: map[string]uint64{}}
	for _, st := range reads {
		rows, err := db.Query(st.sql)
		if err != nil {
			return nil, 0, fmt.Errorf("in-process %s: %w", st.sql, err)
		}
		if err := st.chk.verify(rows.Data); err != nil {
			return nil, 0, &checkError{st.sql, err}
		}
		env.want[st.sql] = checksum(rows.Columns, rows.Data)
	}
	// pctserve's defaults: cache off, the default admission profile with
	// a 16-deep queue, 10-minute idle sessions.
	env.srv = server.New(db, server.Config{
		Addr:           "127.0.0.1:0",
		DefaultTenant:  server.TenantProfile{MaxQueue: 16},
		SessionTimeout: 10 * time.Minute,
	})
	if err := env.srv.Start(); err != nil {
		return nil, 0, err
	}
	for t := 0; t < serveTenants; t++ {
		c, err := server.Dial(env.srv.Addr().String(), fmt.Sprintf("tenant-%d", t))
		if err != nil {
			env.close()
			return nil, 0, err
		}
		env.clients = append(env.clients, c)
	}
	for _, c := range env.clients {
		for i := range reads {
			res, err := c.Do(context.Background(), reads[i].sql)
			if err := env.verify(&reads[i], res, err); err != nil {
				env.close()
				return nil, 0, err
			}
		}
	}
	return env, ld, nil
}

// verify checks a wire result: the structural check and the checksum of
// the in-process result for the same statement.
func (env *serveEnv) verify(st *statement, res *server.Result, err error) error {
	if err != nil {
		return fmt.Errorf("serve %s: %w", st.sql, err)
	}
	if err := st.chk.verify(res.Rows); err != nil {
		return &checkError{st.sql, err}
	}
	if got := checksum(res.Columns, res.Rows); got != env.want[st.sql] {
		return &checkError{st.sql, fmt.Errorf("wire checksum %x differs from in-process %x", got, env.want[st.sql])}
	}
	return nil
}

func (env *serveEnv) close() {
	for _, c := range env.clients {
		c.Close()
	}
	env.srv.Close()
}

// run plays the schedule: one sender per tenant issues each request at its
// due time on the tenant's connection, without waiting for earlier replies.
// With a tracer, each request gets a root span from its due time and a
// client.do child around the wire call.
func (env *serveEnv) run(reqs []request, tr *tracer, peak *heapPeak) ([]outcome, error) {
	outs := make([]outcome, len(reqs))
	var wg sync.WaitGroup
	var mu sync.Mutex
	var checkErr error
	start := time.Now()
	for t := 0; t < serveTenants; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			c := env.clients[t]
			for i := range reqs {
				q := &reqs[i]
				if q.tenant != t {
					continue
				}
				if d := time.Until(start.Add(q.due)); d > 0 {
					time.Sleep(d)
				}
				wg.Add(1)
				go func(i int, q *request) {
					defer wg.Done()
					req := int64(i + 1)
					var root, id int64
					if tr != nil {
						root = tr.add(req, 0, "request", start.Add(q.due))
						id = tr.begin(req, root, "client.do")
					}
					sent := time.Since(start)
					res, err := c.Do(context.Background(), q.sql)
					done := time.Since(start)
					if tr != nil {
						tr.end(id)
						tr.end(root)
					}
					outs[i] = outcome{req: q, sent: sent, done: done, err: err}
					peak.sample()
					var bad error
					switch {
					case err != nil:
					case q.st != nil:
						bad = env.verify(q.st, res, nil)
					case res.Affected != serveAppendRows:
						bad = &checkError{q.sql, fmt.Errorf("append affected %d rows, want %d", res.Affected, serveAppendRows)}
					}
					if bad != nil {
						mu.Lock()
						checkErr = errors.Join(checkErr, bad)
						mu.Unlock()
					}
				}(i, q)
			}
		}(t)
	}
	wg.Wait()
	return outs, checkErr
}

// capacity runs the read mix closed-loop on every connection for dur and
// returns completed statements per second: the calibration the fixed
// open-loop rate is set from.
func (env *serveEnv) capacity(seed int64, reads []statement, dur time.Duration) (float64, error) {
	reqs := serveSchedule(seed, 1000, dur, reads)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	n := 0
	start := time.Now()
	for t := 0; t < serveTenants; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			for i := range reqs {
				if reqs[i].tenant != t || time.Since(start) >= dur {
					continue
				}
				_, err := env.clients[t].Do(context.Background(), reqs[i].sql)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				n++
				mu.Unlock()
			}
		}(t)
	}
	wg.Wait()
	return float64(n) / time.Since(start).Seconds(), firstErr
}
