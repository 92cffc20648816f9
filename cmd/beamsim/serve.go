package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"beamdyn/internal/jobs"
	"beamdyn/internal/obs"
	"beamdyn/internal/obs/export"
	"beamdyn/internal/obs/runtimecol"
)

// runServe is the "beamsim serve" mode: a long-running job control plane
// serving the jobs API alongside the telemetry endpoints.
//
//	beamsim serve -http :8080 -workers 2
//	beamsim serve -oneshot -submit a.json,b.json -trace serve.jsonl
//
// -submit preloads JobSpec files at startup; with -oneshot the process
// exits once those jobs finish (the CI harness for the scenario catalog
// and the queue-wait perf gate), otherwise it serves until killed.
func runServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: beamsim serve [flags]\nflags:\n")
		fs.PrintDefaults()
	}
	var (
		httpAddr        = fs.String("http", ":8080", "serve the jobs API + telemetry on this address (empty disables HTTP; useful with -oneshot)")
		workers         = fs.Int("workers", 2, "dispatch workers (jobs running concurrently)")
		maxQueued       = fs.Int("max-queued", 16, "per-tenant queued-job quota (0 = unlimited)")
		checkpointEvery = fs.Int("checkpoint-every", 1, "checkpoint running jobs every N steps (<0 disables periodic checkpoints)")
		maxResumes      = fs.Int("max-resumes", 3, "checkpoint/resume episodes allowed per job before it fails")
		traceOut        = fs.String("trace", "", "write the control plane's JSONL span/event trace to this file")
		submit          = fs.String("submit", "", "comma-separated JobSpec files to submit at startup")
		oneshot         = fs.Bool("oneshot", false, "exit after the -submit jobs finish (requires -submit)")
		staleAfter      = fs.Duration("stale-after", 0*time.Second, "/healthz reports stalled (503) when no step completes within this window (0 disables)")
		node            = fs.String("node", "", "node label stamped as baggage on every job's traced spans")
		runtimeInt      = fs.Duration("runtime-interval", time.Second, "sample Go runtime telemetry (go_* gauges) at this period (0 disables)")
	)
	fs.Parse(args)
	if fs.NArg() > 0 {
		log.Fatalf("serve: unexpected argument %q", fs.Arg(0))
	}
	if *oneshot && *submit == "" {
		log.Fatal("serve: -oneshot needs -submit")
	}
	if *httpAddr == "" && *submit == "" {
		log.Fatal("serve: nothing to do — give -http and/or -submit")
	}

	// Serve mode has no post-mortem writer, so nothing would read a
	// flight ring: the tracer runs only when -trace gives it a file.
	observer := obs.New()
	var traceSink *obs.JSONLSink
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		traceSink = obs.NewJSONLSink(f)
		observer.Trace = obs.NewTracer(traceSink)
	}

	var rtc *runtimecol.Collector
	if *runtimeInt > 0 {
		rtc = runtimecol.Start(observer.Reg, *runtimeInt)
	}

	js := jobs.New(jobs.Config{
		Workers:            *workers,
		Obs:                observer,
		Node:               *node,
		MaxQueuedPerTenant: *maxQueued,
		CheckpointEvery:    *checkpointEvery,
		MaxResumes:         *maxResumes,
	})

	if *httpAddr != "" {
		srv := &export.Server{Obs: observer, StaleAfter: *staleAfter}
		srv.Mount("/jobs", js.Handler())
		srv.Mount("/jobs/", js.Handler())
		_, addr, err := srv.Start(*httpAddr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("control plane: http://%s (/jobs /metrics /snapshot.json /healthz)\n", addr)
	}

	var submitted []*jobs.Job
	if *submit != "" {
		for _, path := range strings.Split(*submit, ",") {
			sp, err := jobs.LoadSpec(strings.TrimSpace(path))
			if err != nil {
				log.Fatal(err)
			}
			j, err := js.Submit(sp)
			if err != nil {
				log.Fatalf("%s: %v", path, err)
			}
			fmt.Printf("submitted %s  %s\n", j.ID, sp.Name)
			submitted = append(submitted, j)
		}
	}

	if !*oneshot {
		select {} // serve until killed
	}

	failed := 0
	for _, j := range submitted {
		<-j.Done()
		st := j.Status()
		line := fmt.Sprintf("%s  %-24s %-9s attempts=%d wait=%.3fs run=%.3fs",
			j.ID, st.Name, st.State, st.Attempts, st.QueueWaitSec, st.RunSec)
		if res := j.Result(); res != nil {
			line += fmt.Sprintf(" sha256=%s", res.SHA256[:12])
		}
		if st.Error != "" {
			line += fmt.Sprintf(" error=%q", st.Error)
			failed++
		}
		fmt.Println(line)
	}
	js.Close()
	rtc.Stop()
	if traceSink != nil {
		if err := traceSink.Close(); err != nil {
			log.Fatalf("trace sink: %v", err)
		}
		fmt.Printf("trace written to %s\n", *traceOut)
	}
	if failed > 0 {
		os.Exit(1)
	}
}
