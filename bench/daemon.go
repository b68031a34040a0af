package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/campaignd"
	"repro/internal/caps"
	"repro/internal/stressor"
)

// loopback serves a handler on 127.0.0.1 until close.
type loopback struct {
	url string
	srv *http.Server
	// done is closed when Serve has returned.
	done chan struct{}
}

func listenLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.srv.Serve(ln) // returns ErrServerClosed on close, the expected end
	}()
	return l, nil
}

func (l *loopback) close() {
	l.srv.Close()
	<-l.done
}

// oneConnClient is an HTTP client limited to a single connection to
// its host.
func oneConnClient(rt func(http.RoundTripper) http.RoundTripper) *http.Client {
	var t http.RoundTripper = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	if rt != nil {
		t = rt(t)
	}
	return &http.Client{Transport: t}
}

// daemon is daemon-e8-loop: one client in a closed loop against
// campaignd over loopback HTTP. One op is submit, stream events to the
// final one, fetch the result.
type daemon struct {
	e      env
	sched  *campaignd.Scheduler
	lb     *loopback
	client *http.Client
	specs  [][]byte
	// want[i] is the result body spec i must produce, with the run id
	// replaced by idPlaceholder.
	want [][]byte
	// scenarios[i] is the number of scenarios spec i classifies.
	scenarios []int
	next      int

	// simShare holds, per op of the traced pass, the part of the
	// turnaround the daemon's own campaign.elapsed_ns covers; simNS is
	// the sum of those elapsed times.
	simShare []float64
	simNS    float64
}

const idPlaceholder = `"id":"oracle"`

func (d *daemon) setup(in *inputs, e env) error {
	d.e = e
	if err := d.prepare(in); err != nil {
		return err
	}
	sched, err := campaignd.NewScheduler(campaignd.Config{DataDir: e.dir})
	if err != nil {
		return err
	}
	sched.Start()
	d.sched = sched
	if d.lb, err = listenLoopback(campaignd.NewServer(sched)); err != nil {
		return err
	}
	d.client = oneConnClient(nil)
	// One op per runner key, so both prototypes are in the cache.
	for i := 0; i < 2; i++ {
		if err := warmUp(d); err != nil {
			return err
		}
	}
	return nil
}

// prepare renders the spec bodies and computes, in process, the result
// document the daemon must serve for each: the campaign through the
// engine on a warm runner, a sample of it checked against the naive
// path, rendered the way the daemon's store renders it.
func (d *daemon) prepare(in *inputs) error {
	type pair struct{ fast, naive *caps.Runner }
	worlds := map[string]pair{}
	defer func() {
		for _, p := range worlds {
			p.fast.Close()
			p.naive.Close()
		}
	}()
	sites, err := newCaps(capsHorizon)
	if err != nil {
		return err
	}
	d.specs = in.daemonSpecBodies(sites.Universe)
	sites.Close()
	for _, raw := range d.specs {
		spec, err := campaignd.ParseSpec(raw)
		if err != nil {
			return err
		}
		p, ok := worlds[spec.Universe.World]
		if !ok {
			if p.fast, err = spec.BuildRunner(); err != nil {
				return err
			}
			if p.naive, err = spec.BuildRunner(); err != nil {
				p.fast.Close()
				return err
			}
			p.naive.ReuseOff = true
			worlds[spec.Universe.World] = p
		}
		scenarios, err := spec.Scenarios(p.fast)
		if err != nil {
			return err
		}
		res, err := (&stressor.Campaign{
			Name: spec.Campaign, Run: p.fast.RunFunc(), Workers: engineWorkers,
			Checkpoints: true, Checkpointer: p.fast, CheckpointTree: true,
		}).Execute(scenarios)
		if err != nil {
			return err
		}
		// Every k-th scenario of every spec: oracleSample over the list.
		k := sampleEvery(len(scenarios) * len(d.specs))
		for i := 0; i < len(scenarios); i += k {
			want, got := p.naive.RunScenario(scenarios[i]), res.Outcomes[i]
			if got.Class != want.Class || got.Detail != want.Detail {
				return fmt.Errorf("oracle: spec %s scenario %s: engine says %s %q, naive path says %s %q",
					spec.Campaign, scenarios[i].ID, got.Class, got.Detail, want.Class, want.Detail)
			}
		}
		doc := campaignd.BuildResultDoc("oracle", len(scenarios), res, campaignd.Summary{
			World: spec.Universe.World, Protected: !spec.Universe.Unprotected,
			Scenarios: len(scenarios), Workers: spec.Workers, Inline: spec.Inline(), Result: res,
		})
		body, err := json.Marshal(doc)
		if err != nil {
			return err
		}
		d.want, d.scenarios = append(d.want, append(body, '\n')), append(d.scenarios, len(scenarios))
	}
	return nil
}

// do sends one request and returns the body of a 2xx response.
func (d *daemon) do(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, d.lb.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// awaitFinal streams a run's events to the end of the stream (so the
// connection can be reused) and fails unless the final event says done.
func (d *daemon) awaitFinal(id string) error {
	resp, err := d.client.Get(d.lb.url + "/runs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("GET events: HTTP %d", resp.StatusCode)
	}
	var final *campaignd.Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev campaignd.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return err
		}
		if ev.Final {
			final = &ev
		}
	}
	switch {
	case sc.Err() != nil:
		return sc.Err()
	case final == nil:
		return fmt.Errorf("run %s: event stream ended without a final event", id)
	case final.State != campaignd.StateDone:
		return fmt.Errorf("run %s ended %s: %s", id, final.State, final.Error)
	}
	return nil
}

func (d *daemon) round() roundOut {
	i := d.next % len(d.specs)
	d.next++
	tr := d.e.tr
	start := time.Now()
	t0 := tr.now()
	sub, err := d.do(http.MethodPost, "/runs", d.specs[i])
	tr.add(kindSubmit, generatorLane, t0)
	if err != nil {
		return roundOut{err: err}
	}
	var ack struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(sub, &ack); err != nil {
		return roundOut{err: err}
	}
	t0 = tr.now()
	err = d.awaitFinal(ack.ID)
	tr.add(kindWait, generatorLane, t0)
	if err != nil {
		return roundOut{err: err}
	}
	t0 = tr.now()
	body, err := d.do(http.MethodGet, "/runs/"+ack.ID+"/result", nil)
	tr.add(kindFetch, generatorLane, t0)
	out := roundOut{wall: time.Since(start), err: err}
	if err != nil {
		return out
	}
	out.scenarios = d.scenarios[i]
	got := bytes.Replace(body, []byte(`"id":"`+ack.ID+`"`), []byte(idPlaceholder), 1)
	if !bytes.Equal(got, d.want[i]) {
		out.err = fmt.Errorf("oracle: run %s result differs from the in-process result of spec %d", ack.ID, i)
		return out
	}
	if tr != nil {
		d.noteSimShare(ack.ID, out.wall)
	}
	return out
}

// noteSimShare reads the run's own campaign.elapsed_ns from
// /runs/{id}/metrics: the part of the turnaround spent simulating.
func (d *daemon) noteSimShare(id string, turnaround time.Duration) {
	data, err := d.do(http.MethodGet, "/runs/"+id+"/metrics", nil)
	if err != nil {
		return
	}
	var doc struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if json.Unmarshal(data, &doc) != nil {
		return
	}
	for name, v := range doc.Counters {
		if strings.HasPrefix(name, "campaign.elapsed_ns") && turnaround > 0 {
			d.simShare = append(d.simShare, float64(v)/float64(turnaround))
			d.simNS += float64(v)
		}
	}
}

func (d *daemon) close() {
	if d.lb != nil {
		d.lb.close()
	}
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	if d.sched != nil {
		d.sched.Stop()
	}
}
