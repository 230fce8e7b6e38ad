package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"graph2par"
	"graph2par/internal/cache"
	"graph2par/internal/serve"
)

// The serve workload's traffic: one client on one loopback connection
// sends POST /v1/analyze back to back, each request after the previous
// answer (a closed loop with one request in flight), so each request's
// process CPU is its own. A resendShare of the requests re-send one of the
// last recentFiles files, like an editor re-saving; 40% rather than half
// keeps the median request a cache miss, off the hit/miss boundary.
const (
	serveCache     = 4096 // graph2serve's default -cache
	resendShare    = 0.4
	recentFiles    = 8
	warmupRequests = 32
	// poolPerSecond is how many distinct files are drawn per second of
	// the phase: about twice what the stream consumes today, so a
	// much faster engine still has fresh files. Should the stream use
	// them all, the phase ends early; every metric is a cost per loop or
	// per request, so a shorter phase does not bias it.
	poolPerSecond = 200
	// scoredFiles is how many files, first sent first, accuracy is scored
	// over: a fixed count, so accuracy repeats for a seed however fast the
	// phase ran. A slow phase that sends fewer still scores them all.
	scoredFiles = 2000
	// fillFiles is how many files at the end of the pool are set aside to
	// fill the cache before the phase; about 2 200 fill it today.
	fillFiles = 4000
	// The traced run's extra probes: the phase with nproc connections
	// that gives the capacity, the files of the serial HTTP-overhead
	// probe, and the files of the layer replay.
	capacityTime    = 2 * time.Second
	overheadFiles   = 100
	serveTraceFiles = 400
)

// fillCache analyzes files, from the last one back, until the cache is
// nearly full or the files run out, and returns how many it used. The phase
// then runs with the cache in the state of a server that has been up for
// a while: full and evicting, so its memory does not grow through the
// phase.
func fillCache(e *graph2par.Engine, files []input) (int, error) {
	used := 0
	for used < len(files) {
		if st, _ := e.CacheStats(); st.Entries >= st.Capacity*98/100 {
			break
		}
		batch := map[string]string{}
		for ; len(batch) < 32 && used < len(files); used++ {
			in := files[len(files)-1-used]
			batch[in.name] = in.src
		}
		if _, err := e.AnalyzeFiles(batch); err != nil {
			return used, err
		}
	}
	st, _ := e.CacheStats()
	logf("cache filled to %d of %d entries from %d files", st.Entries, st.Capacity, used)
	return used, nil
}

// picker chooses each request's file from the seed: the next fresh file
// of the pool, or with probability resendShare one of the recently sent
// ones. ok is false once a fresh file is due and the pool is used up.
type picker struct {
	rng    *rand.Rand
	next   int
	limit  int
	recent []int
}

func newPicker(seed uint64, limit int) *picker {
	return &picker{rng: rand.New(rand.NewSource(int64(seed))), limit: limit}
}

func (p *picker) pick() (file int, ok bool) {
	if len(p.recent) > 0 && p.rng.Float64() < resendShare {
		return p.recent[p.rng.Intn(len(p.recent))], true
	}
	if p.next == p.limit {
		return 0, false
	}
	f := p.next
	p.next++
	p.recent = append(p.recent, f)
	if len(p.recent) > recentFiles {
		p.recent = p.recent[1:]
	}
	return f, true
}

// exchange is one completed request with the process CPU and wall time of
// its round trip.
type exchange struct {
	file      int
	status    int
	body      [sha256.Size]byte
	err       error
	cpu, wall time.Duration
}

// client sends analyze requests, pre-encoded so the generator's own CPU
// per request stays small and constant.
type client struct {
	http   *http.Client
	url    string
	bodies [][]byte
}

func newClient(base string, pool []input, conns int) (*client, error) {
	c := &client{
		http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
		url:    base + "/v1/analyze",
		bodies: make([][]byte, len(pool)),
	}
	for i, in := range pool {
		var err error
		if c.bodies[i], err = json.Marshal(map[string]string{"source": in.src}); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c *client) send(file int) (int, []byte, error) {
	resp, err := c.http.Post(c.url, "application/json", bytes.NewReader(c.bodies[file]))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// exchange sends one request and times its round trip. The response is
// hashed after the CPU reading, so hashing is not charged to the request.
func (c *client) exchange(file int) exchange {
	c0 := now()
	status, data, err := c.send(file)
	cpu, wall := c0.since()
	return exchange{file: file, status: status, body: sha256.Sum256(data), err: err, cpu: cpu, wall: wall}
}

// closedLoop sends requests one at a time until d has passed or the
// picker's pool is used up, or n requests when n > 0. A non-nil cal takes
// a calibration sample after each request, and a non-nil rss the peak
// resident set across each.
func (c *client) closedLoop(p *picker, d time.Duration, n int, cal *calibrator, rss *rssSampler) ([]exchange, error) {
	var out []exchange
	start := time.Now()
	for (n > 0 && len(out) < n) || (n == 0 && time.Since(start) < d) {
		f, ok := p.pick()
		if !ok {
			logf("the request stream used up all %d files of the pool after %v", p.limit, time.Since(start))
			break
		}
		if rss != nil {
			if err := rss.begin(); err != nil {
				return nil, err
			}
		}
		out = append(out, c.exchange(f))
		if rss != nil {
			if err := rss.end(); err != nil {
				return nil, err
			}
		}
		if cal != nil {
			cal.sample()
		}
	}
	return out, nil
}

// saturate keeps conns connections busy for d, each sender drawing its next
// file from the shared picker, and returns the exchanges completed.
func (c *client) saturate(p *picker, conns int, d time.Duration) []exchange {
	var (
		mu  sync.Mutex
		out []exchange
		wg  sync.WaitGroup
	)
	stop := time.Now().Add(d)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				mu.Lock()
				f, ok := p.pick()
				mu.Unlock()
				if !ok {
					return
				}
				x := c.exchange(f)
				mu.Lock()
				out = append(out, x)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// startServer serves e on a loopback port with graph2serve's defaults (no
// micro-batching, admission control or rate limiting) and returns its base
// URL and a stop function that waits for it to exit.
func startServer(e *graph2par.Engine) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: serve.NewWithConfig(e, serve.ServeConfig{}).Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	stop := func() {
		_ = srv.Shutdown(context.Background())
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// expected is what the server writes for one file when its engine runs
// with the cache off: the body's digest, and the reports in it.
type expected struct {
	body    [sha256.Size]byte
	reports []graph2par.LoopReport
}

// expectedResponses serves every file in files through a fresh server
// around a cache-off copy of e, in process.
func expectedResponses(e *graph2par.Engine, c *client, files []int) (map[int]expected, error) {
	ref := *e
	ref.SetCacheSize(0)
	h := serve.NewWithConfig(&ref, serve.ServeConfig{}).Handler()
	got := make([]expected, len(files))
	err := lanes(len(files), func(i int) error {
		req := httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(c.bodies[files[i]]))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var resp struct {
			Reports []graph2par.LoopReport `json:"reports"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
			return fmt.Errorf("reference response for file %d: status %d: %v", files[i], rec.Code, err)
		}
		got[i] = expected{sha256.Sum256(rec.Body.Bytes()), resp.Reports}
		return nil
	})
	out := make(map[int]expected, len(files))
	for i, f := range files {
		out[f] = got[i]
	}
	return out, err
}

// checkExchanges counts the failed exchanges (transport error, non-200
// status, or a body that differs from the cache-off server's) and the
// non-200 ones.
func checkExchanges(xs []exchange, want map[int]expected) (failed, non200 int) {
	for _, x := range xs {
		switch {
		case x.err != nil:
			failed++
		case x.status != http.StatusOK:
			failed++
			non200++
		case x.body != want[x.file].body:
			logf("check failed: file %d: response differs from the cache-off server's", x.file)
			failed++
		}
	}
	return failed, non200
}

// distinctFiles lists the pool's first n files and every file the
// exchanges sent, each once.
func distinctFiles(n int, xss ...[]exchange) []int {
	seen := map[int]bool{}
	var out []int
	add := func(f int) {
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	for f := 0; f < n; f++ {
		add(f)
	}
	for _, xs := range xss {
		for _, x := range xs {
			add(x.file)
		}
	}
	return out
}

// traffic is one pass of the serve workload's timed phase and what was
// measured around it.
type traffic struct {
	warmup, phase         []exchange
	phaseCPU, phaseWall   time.Duration
	peakMB, steal, scale  float64
	cacheBefore, cacheAft cache.Stats
	allocBytes, gcCycles  uint64
}

func runTraffic(ev *env, e *graph2par.Engine, c *client, p *picker) (traffic, error) {
	var t traffic
	var err error
	t.warmup, err = c.closedLoop(p, 0, warmupRequests, nil, nil)
	if err != nil {
		return t, err
	}
	steal, err := startSteal()
	if err != nil {
		return t, err
	}
	t.cacheBefore, _ = e.CacheStats()
	a0, g0 := runtimeCounters()
	if err := resetPeakRSS(); err != nil {
		return t, err
	}
	cal := newCalibrator()
	var rss rssSampler
	c0 := now()
	t.phase, err = c.closedLoop(p, ev.seconds, 0, cal, &rss)
	if err != nil {
		return t, err
	}
	t.phaseCPU, t.phaseWall = c0.since()
	t.scale = cal.scale()
	t.peakMB = median(rss.peaks)
	a1, g1 := runtimeCounters()
	t.allocBytes, t.gcCycles = a1-a0, g1-g0
	t.cacheAft, _ = e.CacheStats()
	if t.steal, err = steal.share(); err != nil {
		return t, err
	}
	logf("traffic: %d requests in %v, %d of %d pool files sent; cache %d hits, %d misses",
		len(t.phase), t.phaseWall, p.next, p.limit, t.cacheAft.Hits-t.cacheBefore.Hits, t.cacheAft.Misses-t.cacheBefore.Misses)
	return t, nil
}

func runServe(ev *env) (outcome, error) {
	repeats := setupRepeats
	if ev.trace {
		repeats = 1
	}
	var base string
	e, stop, st, err := setupEngine(repeats, graph2par.EngineConfig{CacheSize: serveCache},
		func(e *graph2par.Engine) (func(), error) {
			var stop func()
			var err error
			base, stop, err = startServer(e)
			return stop, err
		})
	if err != nil {
		return outcome{}, err
	}
	defer stop()
	pool, err := drawInputs(ev.seed, int(poolPerSecond*ev.seconds.Seconds())+fillFiles)
	if err != nil {
		return outcome{}, err
	}
	c, err := newClient(base, pool, 1)
	if err != nil {
		return outcome{}, err
	}
	defer c.http.CloseIdleConnections()
	filled, err := fillCache(e, pool[len(pool)-fillFiles:])
	if err != nil {
		return outcome{}, err
	}
	p := newPicker(ev.seed, len(pool)-filled)
	t, err := runTraffic(ev, e, c, p)
	if err != nil {
		return outcome{}, err
	}
	scored := min(scoredFiles, len(pool))

	var capacity []exchange
	if ev.trace {
		cc, err := newClient(base, pool, runtime.NumCPU())
		if err != nil {
			return outcome{}, err
		}
		defer cc.http.CloseIdleConnections()
		capacity = cc.saturate(p, runtime.NumCPU(), capacityTime)
	}
	want, err := expectedResponses(e, c, distinctFiles(scored, t.warmup, t.phase, capacity))
	if err != nil {
		return outcome{}, err
	}
	failed, non200 := checkExchanges(t.warmup, want)
	f, n := checkExchanges(t.phase, want)
	failed, non200 = failed+f, non200+n
	f, n = checkExchanges(capacity, want)
	failed, non200 = failed+f, non200+n
	attempted := len(t.warmup) + len(t.phase) + len(capacity)
	right := 0
	for i := 0; i < scored; i++ {
		if verdictRight(pool[i], want[i].reports) {
			right++
		}
	}
	inDigest := inputDigest(pool)
	loops := 0
	for _, x := range t.phase {
		loops += len(want[x.file].reports)
	}

	if ev.trace {
		oc, err := traceServe(ev, e, c, pool[:min(p.next, serveTraceFiles)], t, loops, capacity, non200, st.cpuS)
		oc.res.Attempted += attempted
		oc.res.Failed += failed
		oc.res.Correct = oc.res.Failed == 0
		oc.digest = inDigest
		return oc, err
	}

	var cpus, walls []float64
	var cpuSum, wallSum time.Duration
	for _, x := range t.phase {
		cpus, walls = append(cpus, ms(x.cpu)), append(walls, ms(x.wall))
		cpuSum, wallSum = cpuSum+x.cpu, wallSum+x.wall
	}
	p50, p90, err := p50p90(cpus)
	if err != nil {
		return outcome{}, err
	}
	wp50, wp90, err := p50p90(walls)
	if err != nil {
		return outcome{}, err
	}
	perLoop := func(d time.Duration) float64 { return ms(d) / float64(loops) }
	raw := timings{st.cpuS, perLoop(cpuSum), p50, p90}
	return outcome{
		res:    endToEnd(raw.scaled(t.scale), t.peakMB, right, scored, attempted, failed),
		digest: inDigest,
		steal:  t.steal,
		raw:    raw,
		wall:   timings{st.wallS, perLoop(wallSum), wp50, wp90},
		scale:  t.scale,
	}, nil
}
