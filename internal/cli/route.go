package cli

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"ftbfs/internal/cluster"
	"ftbfs/internal/server"
)

// parseShardSpec splits a -shards value into (id, base-URL) pairs. Each
// comma-separated entry is either "id=url" or a bare URL, whose ID defaults
// to the host:port part. IDs — not addresses — position shards on the ring,
// so naming them explicitly lets a shard move hosts without remapping keys.
func parseShardSpec(spec string) ([][2]string, error) {
	var out [][2]string
	seen := make(map[string]bool)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url := "", part
		if i := strings.Index(part, "="); i >= 0 && !strings.Contains(part[:i], "/") {
			id, url = part[:i], part[i+1:]
		}
		if !strings.Contains(url, "://") {
			url = "http://" + url
		}
		url = strings.TrimRight(url, "/")
		if id == "" {
			id = strings.TrimPrefix(strings.TrimPrefix(url, "http://"), "https://")
		}
		if seen[id] {
			return nil, fmt.Errorf("duplicate shard id %q", id)
		}
		seen[id] = true
		out = append(out, [2]string{id, url})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-shards names no shards")
	}
	return out, nil
}

func cmdRoute(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("route", flag.ContinueOnError)
	addr := fs.String("addr", ":8081", "listen address")
	shardsSpec := fs.String("shards", "", `comma-separated shard list: "id=host:port" or bare "host:port"`)
	replicas := fs.Int("replication", 2, "replicas per structure (capped at the shard count)")
	vnodes := fs.Int("vnodes", cluster.DefaultVnodes, "virtual ring points per shard")
	hedge := fs.Duration("hedge", cluster.DefaultHedgeDelay, "delay before hedging a point query to the next replica (0 or negative = off)")
	probe := fs.Duration("probe", 2*time.Second, "shard health-probe interval (0 = no probing)")
	id := fs.String("id", "", "router identity reported by /healthz and /stats")
	drainGrace := fs.Duration("drain-grace", 0, "on shutdown, keep serving with /readyz=503 this long so balancers stop routing here first")
	hotExtra := fs.Int("hot-extra", 0, "promote hot keys to replication+N replicas (0 = off)")
	hotMinHits := fs.Uint64("hot-min-hits", 1000, "point-query hits before a key counts as hot")
	hotInterval := fs.Duration("hot-interval", 30*time.Second, "how often to scan for hot keys to promote")
	budget := fs.Duration("budget", 0, "default per-request deadline budget for query requests without an "+server.BudgetHeader+" header (0 = none)")
	retryBackoff := fs.Duration("retry-backoff", cluster.DefaultRetryBackoff, "base delay before a failover retry, doubling with jitter per attempt (negative = off)")
	retryBackoffMax := fs.Duration("retry-backoff-max", cluster.DefaultMaxRetryBackoff, "cap on the exponential retry backoff")
	breakerThreshold := fs.Int("breaker-threshold", cluster.DefaultBreakerThreshold, "consecutive request failures before a shard's circuit breaker opens")
	breakerCooldown := fs.Duration("breaker-cooldown", cluster.DefaultBreakerCooldown, "how long an open breaker waits before letting a probe request through")
	traceSample := fs.Int("trace-sample", 0, "trace every Nth point query end to end, retrievable at /debug/traces (0 = off)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this extra debug-only address, e.g. \"localhost:6061\" (empty = off; never exposed on the serving listener)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	shards, err := parseShardSpec(*shardsSpec)
	if err != nil {
		return err
	}

	ms := cluster.NewMembership(*replicas, *vnodes)
	for _, sh := range shards {
		ms.Join(sh[0], sh[1])
	}
	hedgeDelay := *hedge
	if hedgeDelay == 0 {
		// RouterOptions treats 0 as "use the default"; an operator passing
		// -hedge 0 means off.
		hedgeDelay = -1
	}
	rt := cluster.NewRouter(ms, cluster.RouterOptions{
		HedgeDelay:       hedgeDelay,
		ID:               *id,
		DefaultBudget:    *budget,
		RetryBackoff:     *retryBackoff,
		MaxRetryBackoff:  *retryBackoffMax,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		TraceSample:      *traceSample,
	})

	ctx, cancel := serveSignalContext()
	defer cancel()
	if err := startPprof(ctx, *pprofAddr, stdout); err != nil {
		return err
	}
	// Seed health and the shards' wire addresses (advertised on /readyz)
	// before the first request: queries reach a shard only over its wire
	// listener, so this sweep runs even with probing off.
	ms.ProbeAll(ctx, &http.Client{Timeout: 2 * time.Second})
	if *probe > 0 {
		ms.StartProber(ctx, *probe, &http.Client{Timeout: *probe})
	}
	if *hotExtra > 0 && *hotInterval > 0 {
		go func() {
			t := time.NewTicker(*hotInterval)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if n, err := rt.PromoteHot(ctx, *hotExtra, *hotMinHits); n > 0 || err != nil {
						fmt.Fprintf(stdout, "ftbfs: hot-key promotion: %d promoted (err=%v)\n", n, err)
					}
				}
			}
		}()
	}
	err = server.ServeDraining(ctx, *addr, rt, *drainGrace, func(bound string) {
		fmt.Fprintf(stdout, "ftbfs: routing on %s -> %d shards (replication=%d, healthy=%d)\n",
			bound, len(shards), *replicas, ms.HealthyCount())
		for _, sh := range shards {
			fmt.Fprintf(stdout, "  shard %s @ %s\n", sh[0], sh[1])
		}
		serveReady(bound)
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "ftbfs: router shut down cleanly")
	return nil
}
