package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/slo"
)

// gateway-http: a closed loop in host time. Two tenants, one goroutine
// and one keep-alive connection each, issue HTTP reads and writes through
// MemListener -> service.NewServer -> a deterministic Gateway with an SLO
// controller -> the service experiment's 8x2 SR-Array.
const (
	gwReqs     = 8000 // logical ops per tenant per round
	gwReadFrac = 0.7
	gwSectors  = 8
	gwDepth    = 8 // array admission depth, as in the service experiment
	// gwBestRate/gwBestBurst are the best-effort tenant's token bucket
	// (requests per virtual second); the closed loop runs well above it.
	gwBestRate  = 60
	gwBestBurst = 4
	// gwRetries bounds the retries of one op after a 429.
	gwRetries = 3
	// gwWindow and gwPremiumP99 make the SLO controller judge premium
	// traffic against a target the array misses in its slower windows
	// (reads take ~4 ms, writes longer), so the brownout ladder moves.
	gwWindow     = 50 * des.Millisecond
	gwPremiumP99 = 6 * des.Millisecond
)

// gwTenants are the tenants; the prefixes pick their SLO tiers.
var gwTenants = []string{"best-1", "premium-0"}

type gwOp struct {
	write bool
	off   int64
}

type gatewayWorkload struct {
	seed  int64
	plans [][]gwOp
}

// apiResponse mirrors the JSON body of the block endpoints.
type apiResponse struct {
	Status       int     `json:"status"`
	Error        string  `json:"error"`
	SubmitUs     float64 `json:"submit_us"`
	DoneUs       float64 `json:"done_us"`
	LatencyUs    float64 `json:"latency_us"`
	RetryAfterUs float64 `json:"retry_after_us"`
}

func (w *gatewayWorkload) setup(seed int64) (float64, float64, error) {
	t0 := time.Now()
	w.seed = seed
	rng := rand.New(rand.NewSource(seed))
	st, err := w.build(nil, nil)
	if err != nil {
		return 0, 0, err
	}
	sectors := st.arr.DataSectors()
	w.plans = make([][]gwOp, len(gwTenants))
	for t := range w.plans {
		w.plans[t] = make([]gwOp, gwReqs)
		for i := range w.plans[t] {
			w.plans[t][i] = gwOp{write: rng.Float64() >= gwReadFrac, off: rng.Int63n(sectors - gwSectors)}
		}
	}
	// A set-up sample ends at the first timed op: the stack is up and
	// every tenant's connection is open.
	if err := st.warm(); err != nil {
		st.close()
		return 0, 0, err
	}
	setupSec := time.Since(t0).Seconds()
	return 0, setupSec, st.close()
}

// gwStack is one running serving stack.
type gwStack struct {
	arr    *core.Array
	vol    *timedVolume // nil when untraced
	ctl    *slo.Controller
	gw     *service.Gateway
	ln     *service.MemListener
	srv    *http.Server
	client *http.Client
	runErr chan error
	served chan struct{} // closed when Serve has returned
	hd     *timedHandler // nil when untraced
}

func (w *gatewayWorkload) build(tr *tracer, reg *obs.Registry) (*gwStack, error) {
	sim := des.New()
	a, err := core.New(sim, core.Options{
		Config: layout.Config{Ds: 8, Dr: 2, Dm: 1}, Policy: "rsatf", Seed: w.seed,
		MaxQueueDepth: gwDepth, Obs: reg,
	})
	if err != nil {
		return nil, err
	}
	st := &gwStack{arr: a, ln: service.NewMemListener(), runErr: make(chan error, 1), served: make(chan struct{})}
	var vol core.Volume = a
	if tr != nil {
		st.vol = &timedVolume{Volume: a, name: "core", tr: tr, parent: -1}
		vol = st.vol
	}
	st.ctl, err = slo.New(vol, slo.Options{
		Window:  gwWindow,
		Targets: [slo.NumTiers]des.Time{slo.Premium: gwPremiumP99},
		Classify: func(t string) slo.Tier {
			switch {
			case strings.HasPrefix(t, "premium"):
				return slo.Premium
			case strings.HasPrefix(t, "best"):
				return slo.BestEffort
			}
			return slo.Standard
		},
	})
	if err != nil {
		return nil, err
	}
	st.gw = service.NewGateway(vol, service.Config{
		Deterministic: true,
		Limits: service.Limits{PerTenant: map[string]service.TenantLimit{
			"best-1": {Rate: gwBestRate, Burst: gwBestBurst},
		}},
		SLO: st.ctl,
	})
	var h http.Handler = service.NewServer(st.gw)
	if tr != nil {
		st.hd = &timedHandler{h: h, tr: tr, ns: map[string][]int64{}}
		h = st.hd
	}
	st.srv = &http.Server{Handler: h}
	go func() {
		defer close(st.served)
		_ = st.srv.Serve(st.ln) // returns http.ErrServerClosed after close
	}()
	go func() { st.runErr <- st.gw.Run() }()
	st.client = &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
			return st.ln.Dial(ctx)
		},
		MaxIdleConnsPerHost: len(gwTenants),
		DisableCompression:  true,
	}}
	return st, nil
}

// warm opens every tenant's keep-alive connection with a request the
// server's mux answers 404 without reaching the gateway.
func (st *gwStack) warm() error {
	var wg sync.WaitGroup
	errs := make([]error, len(gwTenants))
	for i := range gwTenants {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := st.client.Get("http://mem/warm")
			if err != nil {
				errs[i] = err
				return
			}
			resp.Body.Close()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("gateway-http: warm-up: %w", err)
		}
	}
	return nil
}

// close shuts the gateway (draining admitted work), the server and the
// connections, and waits for the run loop and the server.
func (st *gwStack) close() error {
	st.gw.Close()
	err := <-st.runErr
	st.client.CloseIdleConnections()
	_ = st.srv.Close() // closes the listener too
	<-st.served
	if err != nil {
		return fmt.Errorf("gateway-http: run loop: %w", err)
	}
	return nil
}

// tenantTally is one tenant's client-side outcome counts.
type tenantTally struct {
	ops, requests, ok, limited, shed, overloaded, other, sleeps int
	transportErr                                                error
	rtt                                                         []float64 // µs per HTTP request
	lats                                                        []des.Time
	sloOK                                                       int
	last                                                        des.Time
}

// gwResult is what the checks need from a round.
type gwResult struct {
	tallies []tenantTally
	stats   service.Stats
	sheds   core.ShedCounters
	slo     slo.State
}

func (w *gatewayWorkload) round(tr *tracer, _ int) (*roundResult, error) {
	var reg *obs.Registry
	if tr != nil {
		reg = &obs.Registry{}
	}
	st, err := w.build(tr, reg)
	if err != nil {
		return nil, err
	}
	if err := st.warm(); err != nil {
		st.close()
		return nil, err
	}
	for _, t := range gwTenants {
		st.gw.Register(t)
	}
	tallies := make([]tenantTally, len(gwTenants))
	var wg sync.WaitGroup
	m0 := mallocs()
	t0 := time.Now()
	for i := range gwTenants {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := gwTenants[i]
			defer st.gw.Unregister(name)
			w.tenant(st, tr, i, &tallies[i])
		}(i)
	}
	wg.Wait()
	runNs := time.Since(t0).Nanoseconds()
	res := &roundResult{hostSec: float64(runNs) / 1e9, mallocs: mallocs() - m0}
	if err := st.close(); err != nil {
		return nil, err
	}

	g := &gwResult{tallies: tallies, stats: st.gw.Stats(), sheds: st.arr.Sheds(), slo: st.ctl.State()}
	res.extra = g
	ok := 0
	for i := range tallies {
		t := &tallies[i]
		res.attempted += t.requests
		res.ops += t.ops
		res.refused += t.limited + t.shed + t.overloaded
		res.failed += t.other
		if t.transportErr != nil {
			res.failed++
		}
		res.hostUs = append(res.hostUs, t.rtt...)
		for _, l := range t.lats {
			res.sim.Add(l)
		}
		res.sloOK += t.sloOK
		ok += t.ok
		if t.last > res.simSpan {
			res.simSpan = t.last
		}
	}
	res.events = st.arr.Sim().Processed
	res.digest = fmt.Sprintf("gateway ops=%d attempted=%d ok=%d refused=%d failed=%d p50=%v p99=%v mean=%v slo=%d last=%v stats=%+v sheds=%+v events=%d slo=%s",
		res.ops, res.attempted, ok, res.refused, res.failed, res.sim.Percentile(50), res.sim.Percentile(99), res.sim.Mean(),
		res.sloOK, res.simSpan, g.stats, g.sheds, res.events, g.slo)

	if tr != nil {
		l := map[string]float64{}
		var handler, self, transport []float64
		share := float64(st.vol.totalNs()) / float64(g.stats.Requests)
		for i, name := range gwTenants {
			hs := st.hd.ns[name]
			rtt := tallies[i].rtt
			if len(hs) != len(rtt) {
				return nil, fmt.Errorf("gateway-http: %s: %d handler timings for %d round trips", name, len(hs), len(rtt))
			}
			for k, h := range hs {
				handler = append(handler, float64(h)/1e3)
				self = append(self, (float64(h)-share)/1e3)
				transport = append(transport, rtt[k]-float64(h)/1e3)
			}
		}
		l["host:core.submit_ns"] = float64(st.vol.totalNs()) / float64(st.vol.calls)
		l["host:http.handler_us_p50"] = percentile(handler, 50)
		l["host:gateway.self_us_p50"] = percentile(self, 50)
		l["host:http.transport_us_p50"] = percentile(transport, 50)
		l["gateway.barriers_per_op"] = float64(st.vol.batches) / float64(g.stats.Requests)
		l["gateway.rate_limited"] = float64(g.stats.RateLimited)
		l["gateway.sleeps"] = float64(g.stats.Sleeps)
		l["slo.windows_judged"] = float64(g.slo.Judged)
		l["slo.escalations"] = float64(g.slo.Escalations)
		var sheds int64
		for _, t := range g.slo.Tiers {
			sheds += t.Sheds
		}
		l["slo.sheds"] = float64(sheds)
		// Close drained the array: its clock is at the last event.
		arrayLayers(l, []*core.Array{st.arr}, reg, res.ops, st.arr.Sim().Now())
		res.layers = l
	}
	return res, nil
}

// tenant runs one tenant's closed loop: each op is issued over HTTP and,
// on a 429, retried after sleeping out exactly the Retry-After in virtual
// time, as the header asks.
func (w *gatewayWorkload) tenant(st *gwStack, tr *tracer, i int, t *tenantTally) {
	name := gwTenants[i]
	var seq uint64
	for _, o := range w.plans[i] {
		t.ops++
		for attempt := 0; ; attempt++ {
			seq++
			start := time.Now()
			resp, err := st.do(name, seq, o)
			rtt := time.Since(start)
			if err != nil {
				t.transportErr = err
				return
			}
			if tr != nil && sampled(int64(seq)) {
				s := int64(start.Sub(tr.base))
				tr.add("http.roundtrip", s, s+int64(rtt), -1, opID(i, seq))
			}
			t.requests++
			t.rtt = append(t.rtt, float64(rtt.Nanoseconds())/1e3)
			if d := des.Time(resp.DoneUs); d > t.last {
				t.last = d
			}
			switch {
			case resp.Status == service.StatusOK:
				t.ok++
				lat := des.Time(resp.LatencyUs)
				t.lats = append(t.lats, lat)
				if lat <= sloBound {
					t.sloOK++
				}
			case resp.Status == service.StatusTooMany && resp.Error == "rate limited":
				t.limited++
			case resp.Status == service.StatusTooMany && strings.HasPrefix(resp.Error, "shed:"):
				t.shed++
			case resp.Status == service.StatusTooMany:
				t.overloaded++
			default:
				t.other++
			}
			if resp.Status != service.StatusTooMany || attempt >= gwRetries {
				break
			}
			seq++
			t.sleeps++
			st.gw.Sleep(name, seq, des.Time(resp.RetryAfterUs))
		}
	}
}

func (st *gwStack) do(tenant string, seq uint64, o gwOp) (apiResponse, error) {
	method, path := http.MethodGet, "/v1/vol/read"
	if o.write {
		method, path = http.MethodPost, "/v1/vol/write"
	}
	url := "http://mem" + path + "?off=" + strconv.FormatInt(o.off, 10) + "&count=" + strconv.Itoa(gwSectors)
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return apiResponse{}, err
	}
	req.Header.Set("X-Tenant", tenant)
	req.Header.Set("X-Seq", strconv.FormatUint(seq, 10))
	hr, err := st.client.Do(req)
	if err != nil {
		return apiResponse{}, err
	}
	defer hr.Body.Close()
	var resp apiResponse
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		return apiResponse{}, fmt.Errorf("bad response body: %w", err)
	}
	return resp, nil
}

// opID names one HTTP request across the client and handler spans.
func opID(tenant int, seq uint64) int64 { return int64(tenant)<<40 | int64(seq) }

// timedHandler times the server's handler per request, keyed by tenant in
// request order (each tenant has one request in flight at a time).
type timedHandler struct {
	h  http.Handler
	tr *tracer
	mu sync.Mutex
	ns map[string][]int64
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := t.tr.now()
	t.h.ServeHTTP(w, r)
	t1 := t.tr.now()
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		return // the warm-up requests
	}
	t.mu.Lock()
	t.ns[tenant] = append(t.ns[tenant], t1-t0)
	t.mu.Unlock()
	if seq, err := strconv.ParseUint(r.Header.Get("X-Seq"), 10, 64); err == nil && sampled(int64(seq)) {
		for i, name := range gwTenants {
			if name == tenant {
				t.tr.add("http.handler", t0, t1, -1, opID(i, seq))
			}
		}
	}
}

func (w *gatewayWorkload) check(r *roundResult) error {
	g := r.extra.(*gwResult)
	var sum tenantTally
	for _, t := range g.tallies {
		if t.transportErr != nil {
			return fmt.Errorf("gateway-http: transport error: %w", t.transportErr)
		}
		sum.requests += t.requests
		sum.ok += t.ok
		sum.limited += t.limited
		sum.shed += t.shed
		sum.overloaded += t.overloaded
		sum.other += t.other
		sum.sleeps += t.sleeps
	}
	s := g.stats
	switch {
	case int64(sum.requests) != s.Requests || int64(sum.ok) != s.OK || int64(sum.limited) != s.RateLimited ||
		int64(sum.shed) != s.Shed || int64(sum.overloaded) != s.Overloaded || int64(sum.sleeps) != s.Sleeps ||
		sum.other != 0 || s.Failed+s.Unavailable+s.BadRequest != 0:
		return fmt.Errorf("gateway-http: client tallies %+v do not match gateway stats %+v", sum, s)
	case g.sheds.Overload != s.Overloaded:
		return fmt.Errorf("gateway-http: array shed %d but the gateway returned %d overload 429s", g.sheds.Overload, s.Overloaded)
	case s.RateLimited+s.Shed+s.Overloaded == 0:
		return fmt.Errorf("gateway-http: no 429 at all; the refusal path did not run")
	case g.slo.Escalations == 0:
		return fmt.Errorf("gateway-http: the SLO controller never escalated")
	}
	return nil
}
