package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"visapult/pkg/visapult"
	"visapult/pkg/visapult/dpss"
)

// runFabric dispatches the fabric subcommands. With -daemon set they go
// through a running visapultd's /api/dpss endpoints (so they act on the
// daemon's live federation — drain state, health history and all);
// otherwise status and warm operate directly on the -clusters list.
func runFabric(daemon, clusters string, replication, stripes, blockSize int, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("fabric needs a subcommand: status | warm <base> <NXxNYxNZ> <steps> | rebalance | repair | drain <cluster> | drain-empty <cluster> | undrain <cluster>")
	}
	if daemon != "" {
		return runFabricDaemon(strings.TrimRight(daemon, "/"), blockSize, args)
	}
	switch args[0] {
	case "drain", "undrain":
		return fmt.Errorf("fabric %s acts on a daemon's live federation; point dpssctl at one with -daemon", args[0])
	}
	specs, err := parseClusters(clusters)
	if err != nil {
		return err
	}
	fb, err := dpss.NewFabric(dpss.FabricConfig{
		Clusters: specs, Replication: replication, AttemptTimeout: 2 * time.Second, Stripes: stripes,
	})
	if err != nil {
		return err
	}
	defer fb.Close()
	switch args[0] {
	case "status":
		return fabricStatus(fb)
	case "warm":
		return fabricWarm(fb, blockSize, args[1:])
	case "rebalance":
		report, err := fb.Rebalance(context.Background(), rebalanceOptions())
		return printRebalance(report, err)
	case "repair":
		report, err := fb.Repair(context.Background(), rebalanceOptions())
		return printRebalance(report, err)
	case "drain-empty":
		if len(args) != 2 {
			return fmt.Errorf("fabric drain-empty needs a cluster name")
		}
		report, err := fb.DrainToEmpty(context.Background(), args[1], rebalanceOptions())
		return printRebalance(report, err)
	default:
		return fmt.Errorf("unknown fabric subcommand %q", args[0])
	}
}

// rebalanceOptions streams each completed or failed move to stdout.
func rebalanceOptions() dpss.RebalanceOptions {
	var mu sync.Mutex
	return dpss.RebalanceOptions{
		OnMove: func(mv dpss.DatasetMove) {
			if mv.State != "done" && mv.State != "failed" {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if mv.Error != "" {
				fmt.Printf("  %-28s -> %-10s FAILED: %s\n", mv.Dataset, mv.To, mv.Error)
				return
			}
			fmt.Printf("  %-28s %s -> %-10s %s\n", mv.Dataset, mv.From, mv.To, visapult.HumanBytes(mv.Copied))
		},
	}
}

// printRebalance summarizes an engine run; the per-move detail already
// streamed through rebalanceOptions.
func printRebalance(report *dpss.RebalanceReport, err error) error {
	if report != nil {
		fmt.Printf("%s: epoch %d, %d datasets examined, %d moves (%d failed), %s migrated in %v (%.1f MB/s)",
			report.Kind, report.Epoch, report.Datasets, len(report.Moves), report.Failed(),
			visapult.HumanBytes(report.Bytes), report.Elapsed.Round(time.Millisecond), report.RateMBps())
		if report.Removed > 0 {
			fmt.Printf(", %d copies removed off the drained cluster", report.Removed)
		}
		fmt.Println()
	}
	return err
}

// fabricStatus probes every member and prints health plus the federation
// catalog.
func fabricStatus(fb *dpss.Fabric) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	health := fb.Probe(ctx)
	fmt.Printf("federation : %d clusters, replication %d, %d stripes per block server\n",
		len(health), fb.Replication(), fb.Stripes())
	for _, h := range health {
		printClusterHealth(h.Name, h.Master, h.Healthy, h.Drained, h.Failures, h.LastError)
	}
	printStripeStats(fb.StripeStats())
	datasets := fb.Datasets(ctx)
	fmt.Printf("datasets   : %d\n", len(datasets))
	for _, d := range datasets {
		fmt.Printf("  %-28s replicas: %s\n", d.Name, strings.Join(d.Clusters, ", "))
	}
	return nil
}

// printStripeStats renders the striped data path's per-connection counters,
// one row per (cluster, block server, stripe). Nothing is printed before any
// member client has moved data — a cold federation has no stripes yet.
func printStripeStats(stats map[string][]dpss.StripeStat) {
	if len(stats) == 0 {
		return
	}
	clusters := make([]string, 0, len(stats))
	for c := range stats {
		clusters = append(clusters, c)
	}
	sort.Strings(clusters)
	fmt.Println("stripes    :")
	for _, c := range clusters {
		for _, st := range stats[c] {
			state := "idle"
			if st.Connected {
				state = "up"
			}
			fmt.Printf("  %-10s %-22s #%d %-7s %10s  reads %-7d fails %d\n",
				c, st.Server, st.Stripe, state, visapult.HumanBytes(st.Bytes), st.Reads, st.Failures)
		}
	}
}

func printClusterHealth(name, master string, healthy, drained bool, failures int, lastErr string) {
	state := "healthy"
	switch {
	case drained:
		state = "drained"
	case !healthy:
		state = fmt.Sprintf("down (%d failures)", failures)
	}
	fmt.Printf("  %-10s %-22s %s", name, master, state)
	if lastErr != "" {
		fmt.Printf("  last error: %s", lastErr)
	}
	fmt.Println()
}

// fabricWarm generates the synthetic combustion time-series and warms it
// into every placement replica, streaming per-cluster progress.
func fabricWarm(fb *dpss.Fabric, blockSize int, args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("fabric warm needs <base> <NXxNYxNZ> <steps>")
	}
	base := args[0]
	var nx, ny, nz int
	if _, err := fmt.Sscanf(args[1], "%dx%dx%d", &nx, &ny, &nz); err != nil {
		return fmt.Errorf("parsing dimensions %q: %w", args[1], err)
	}
	steps, err := strconv.Atoi(args[2])
	if err != nil || steps < 1 {
		return fmt.Errorf("invalid step count %q", args[2])
	}
	var mu sync.Mutex
	report, err := dpss.WarmCombustion(context.Background(), fb, base, nx, ny, nz, steps, 0, dpss.WarmConfig{
		BlockSize: blockSize,
		OnProgress: func(p dpss.WarmProgress) {
			if !p.Done {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if p.Err != "" {
				fmt.Printf("  %-28s -> %-10s FAILED: %s\n", p.File, p.Cluster, p.Err)
				return
			}
			fmt.Printf("  %-28s -> %-10s %s\n", p.File, p.Cluster, visapult.HumanBytes(p.Staged))
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("warmed %d files (%s total, every replica) in %v: %.1f MB/s aggregate\n",
		len(report.Files), visapult.HumanBytes(report.Bytes),
		report.Elapsed.Round(time.Millisecond), report.RateMBps())
	return nil
}

// ---------------------------------------------------------------------------
// Daemon mode: the same subcommands through visapultd's /api/dpss plane.

func runFabricDaemon(base string, blockSize int, args []string) error {
	switch args[0] {
	case "status":
		return daemonStatus(base)
	case "warm":
		return daemonWarm(base, blockSize, args[1:])
	case "rebalance", "repair":
		return daemonRebalance(base, args[0], "")
	case "drain-empty":
		if len(args) != 2 {
			return fmt.Errorf("fabric drain-empty needs a cluster name")
		}
		return daemonRebalance(base, "drain", args[1])
	case "drain", "undrain":
		if len(args) != 2 {
			return fmt.Errorf("fabric %s needs a cluster name", args[0])
		}
		var out map[string]any
		if err := daemonCall(http.MethodPost,
			fmt.Sprintf("%s/api/dpss/clusters/%s/%s", base, args[1], args[0]), nil, &out); err != nil {
			return err
		}
		fmt.Printf("cluster %s: %s requested\n", args[1], args[0])
		return nil
	default:
		return fmt.Errorf("unknown fabric subcommand %q", args[0])
	}
}

// daemonHealth mirrors visapultd's cluster-health wire shape.
type daemonHealth struct {
	Name      string `json:"name"`
	Master    string `json:"master"`
	Healthy   bool   `json:"healthy"`
	Drained   bool   `json:"drained"`
	Failures  int    `json:"failures"`
	LastError string `json:"lastError"`
}

func daemonStatus(base string) error {
	var probe struct {
		Clusters []daemonHealth `json:"clusters"`
	}
	if err := daemonCall(http.MethodPost, base+"/api/dpss/probe", nil, &probe); err != nil {
		return err
	}
	var overview struct {
		Replication int                          `json:"replication"`
		Stripes     int                          `json:"stripes"`
		StripeStats map[string][]dpss.StripeStat `json:"stripeStats"`
	}
	if err := daemonCall(http.MethodGet, base+"/api/dpss", nil, &overview); err != nil {
		return err
	}
	fmt.Printf("federation : %d clusters, replication %d, %d stripes per block server (via %s)\n",
		len(probe.Clusters), overview.Replication, overview.Stripes, base)
	for _, h := range probe.Clusters {
		printClusterHealth(h.Name, h.Master, h.Healthy, h.Drained, h.Failures, h.LastError)
	}
	printStripeStats(overview.StripeStats)
	var cat struct {
		Datasets []struct {
			Name     string   `json:"name"`
			Replicas []string `json:"replicas"`
		} `json:"datasets"`
	}
	if err := daemonCall(http.MethodGet, base+"/api/dpss/datasets", nil, &cat); err != nil {
		return err
	}
	fmt.Printf("datasets   : %d\n", len(cat.Datasets))
	for _, d := range cat.Datasets {
		fmt.Printf("  %-28s replicas: %s\n", d.Name, strings.Join(d.Replicas, ", "))
	}
	return nil
}

func daemonWarm(base string, blockSize int, args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("fabric warm needs <base> <NXxNYxNZ> <steps>")
	}
	var nx, ny, nz int
	if _, err := fmt.Sscanf(args[1], "%dx%dx%d", &nx, &ny, &nz); err != nil {
		return fmt.Errorf("parsing dimensions %q: %w", args[1], err)
	}
	steps, err := strconv.Atoi(args[2])
	if err != nil || steps < 1 {
		return fmt.Errorf("invalid step count %q", args[2])
	}
	req := map[string]any{"base": args[0], "nx": nx, "ny": ny, "nz": nz, "steps": steps,
		"blockSize": blockSize}
	var started struct {
		ID string `json:"id"`
	}
	if err := daemonCall(http.MethodPost, base+"/api/dpss/warm", req, &started); err != nil {
		return err
	}
	fmt.Printf("warming job %s started\n", started.ID)
	for {
		time.Sleep(200 * time.Millisecond)
		var job struct {
			State    string  `json:"state"`
			Error    string  `json:"error"`
			Bytes    int64   `json:"bytes"`
			RateMBps float64 `json:"rateMBps"`
			Files    map[string]map[string]struct {
				Staged int64 `json:"staged"`
				Total  int64 `json:"total"`
				Done   bool  `json:"done"`
			} `json:"files"`
		}
		if err := daemonCall(http.MethodGet, base+"/api/dpss/warm/"+started.ID, nil, &job); err != nil {
			return err
		}
		if job.State == "running" {
			continue
		}
		if job.State == "failed" {
			return fmt.Errorf("warming failed: %s", job.Error)
		}
		files := make([]string, 0, len(job.Files))
		for f := range job.Files {
			files = append(files, f)
		}
		sort.Strings(files)
		for _, f := range files {
			replicas := make([]string, 0, len(job.Files[f]))
			for c := range job.Files[f] {
				replicas = append(replicas, c)
			}
			sort.Strings(replicas)
			fmt.Printf("  %-28s replicas: %s\n", f, strings.Join(replicas, ", "))
		}
		fmt.Printf("warmed %s at %.1f MB/s aggregate\n", visapult.HumanBytes(job.Bytes), job.RateMBps)
		return nil
	}
}

// daemonRebalance starts an asynchronous rebalance job on the daemon and
// polls it to completion, printing the per-move outcome.
func daemonRebalance(base, kind, cluster string) error {
	req := map[string]any{"kind": kind}
	if cluster != "" {
		req["cluster"] = cluster
	}
	var started struct {
		ID string `json:"id"`
	}
	if err := daemonCall(http.MethodPost, base+"/api/dpss/rebalance", req, &started); err != nil {
		return err
	}
	fmt.Printf("%s job %s started\n", kind, started.ID)
	for {
		time.Sleep(200 * time.Millisecond)
		var job struct {
			State    string  `json:"state"`
			Error    string  `json:"error"`
			Epoch    int     `json:"epoch"`
			Datasets int     `json:"datasets"`
			Removed  int     `json:"removed"`
			Failed   int     `json:"failed"`
			Bytes    int64   `json:"bytes"`
			RateMBps float64 `json:"rateMBps"`
			Moves    map[string]map[string]struct {
				From   string `json:"from"`
				Copied int64  `json:"copied"`
				State  string `json:"state"`
				Error  string `json:"error"`
			} `json:"moves"`
		}
		if err := daemonCall(http.MethodGet, base+"/api/dpss/rebalance/"+started.ID, nil, &job); err != nil {
			return err
		}
		if job.State == "running" {
			continue
		}
		datasets := make([]string, 0, len(job.Moves))
		for d := range job.Moves {
			datasets = append(datasets, d)
		}
		sort.Strings(datasets)
		for _, d := range datasets {
			targets := make([]string, 0, len(job.Moves[d]))
			for t := range job.Moves[d] {
				targets = append(targets, t)
			}
			sort.Strings(targets)
			for _, t := range targets {
				mv := job.Moves[d][t]
				if mv.Error != "" {
					fmt.Printf("  %-28s -> %-10s FAILED: %s\n", d, t, mv.Error)
					continue
				}
				fmt.Printf("  %-28s %s -> %-10s %s\n", d, mv.From, t, visapult.HumanBytes(mv.Copied))
			}
		}
		fmt.Printf("%s: epoch %d, %d datasets examined, %d failed moves, %s migrated (%.1f MB/s)",
			kind, job.Epoch, job.Datasets, job.Failed, visapult.HumanBytes(job.Bytes), job.RateMBps)
		if job.Removed > 0 {
			fmt.Printf(", %d copies removed off the drained cluster", job.Removed)
		}
		fmt.Println()
		if job.State == "failed" {
			return fmt.Errorf("%s failed: %s", kind, job.Error)
		}
		return nil
	}
}

// daemonCall performs one JSON request against the daemon.
func daemonCall(method, url string, body any, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return fmt.Errorf("%s %s: %s", method, url, e.Error)
		}
		return fmt.Errorf("%s %s: HTTP %d", method, url, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}
