package main

import (
	"fmt"
	"strings"

	"ftbfs/internal/cluster"
	"ftbfs/internal/telemetry"
)

// counters is one scrape of the fleet: the router's /stats (the router
// serves no /metrics.json; /stats reads the same registry) and every
// shard's /metrics.json snapshot.
type counters struct {
	router cluster.RouterStatsResponse
	shards []*telemetry.Snapshot
}

func (fl *fleet) scrape() (*counters, error) {
	c := &counters{}
	if err := fl.getJSON(fl.lc.URL()+"/stats", &c.router); err != nil {
		return nil, fmt.Errorf("router /stats: %w", err)
	}
	for _, sh := range fl.lc.Shards {
		var s telemetry.Snapshot
		if err := fl.getJSON(sh.Addr()+"/metrics.json", &s); err != nil {
			return nil, fmt.Errorf("%s /metrics.json: %w", sh.ID, err)
		}
		c.shards = append(c.shards, &s)
	}
	return c, nil
}

// shardSum sums, over every shard, the counters and histogram observation
// counts whose series key starts with prefix.
func (c *counters) shardSum(prefix string) float64 {
	var n uint64
	for _, s := range c.shards {
		for k, v := range s.Counters {
			if strings.HasPrefix(k, prefix) {
				n += v
			}
		}
		for k, h := range s.Hists {
			if strings.HasPrefix(k, prefix) {
				n += h.Count()
			}
		}
	}
	return float64(n)
}

// planCount reads a query-plan path counter. The plan counters are
// process-wide, so every shard of the in-process fleet reports the same
// value; the first shard's is the total.
func (c *counters) planCount(path string) float64 {
	return float64(c.shards[0].Counters[`ftbfs_plan_queries_total{model="edge",path="`+path+`"}`])
}

func (c *counters) breakerOpens() float64 {
	var n uint64
	for _, s := range c.router.Shards {
		n += s.BreakerOpens
	}
	return float64(n)
}

// count is one counter ratio with its numerator and base.
type count struct {
	name      string
	unit      string
	num, base float64
	baseName  string // "" for a plain count
}

func (k count) value() float64 {
	if k.baseName == "" {
		return k.num
	}
	return ratio(k.num, k.base)
}

// countDeltas turns two scrapes around a phase into the named counts.
func countDeltas(a, b *counters) []count {
	ra, rb := &a.router, &b.router
	d := func(x, y uint64) float64 { return float64(y) - float64(x) }
	sd := func(prefix string) float64 { return b.shardSum(prefix) - a.shardSum(prefix) }
	wireTried := d(ra.WirePoints, rb.WirePoints) + d(ra.WireBatches, rb.WireBatches) +
		d(ra.WireMutations, rb.WireMutations) + d(ra.WireFallbacks, rb.WireFallbacks)
	hits, misses := sd(`ftbfs_store_ops_total{op="hit"}`), sd(`ftbfs_store_ops_total{op="miss"}`)
	planHit := b.planCount("hit") - a.planCount("hit")
	planRepair := b.planCount("repair") - a.planCount("repair")
	mutations := d(ra.Mutations, rb.Mutations)
	return []count{
		{"cluster.hedges_per_read", "ratio", d(ra.Hedges, rb.Hedges), d(ra.PointQueries, rb.PointQueries), "routed point reads"},
		{"cluster.wire_fallback_frac", "ratio", d(ra.WireFallbacks, rb.WireFallbacks), wireTried, "wire requests"},
		{"cluster.failovers", "count", d(ra.Failovers, rb.Failovers), 0, ""},
		{"cluster.breaker_opens", "count", b.breakerOpens() - a.breakerOpens(), 0, ""},
		{"cluster.shard_requests_per_batch", "ratio",
			sd(`ftbfs_wire_request_seconds{type="batch"`) + sd(`ftbfs_http_request_seconds{route="/batch-query"`),
			d(ra.Batches, rb.Batches), "routed batches"},
		{"server.shed_frac", "ratio", sd("ftbfs_shed_total"), sd("ftbfs_requests_total"), "shard requests"},
		{"store.hit_frac", "ratio", hits, hits + misses, "store lookups"},
		{"store.rebuilds_delta", "ratio", sd(`ftbfs_store_rebuilds_total{kind="delta"}`), mutations, "routed mutations"},
		{"store.rebuilds_full", "ratio", sd(`ftbfs_store_rebuilds_total{kind="full"}`), mutations, "routed mutations"},
		{"plan.repair_frac", "ratio", planRepair, planHit + planRepair, "plan answers"},
	}
}
