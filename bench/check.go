package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"repro/internal/telemetry"
)

// simnet's drop reasons: five are losses of a packet a link had
// accepted; ttl and no-viable-port are drops of a packet a switch had
// already been handed.
var (
	linkDropReasons = []string{"no-port", "link-down", "queue-full", "in-flight", "gray"}
	nodeDropReasons = []string{"ttl", "no-viable-port"}
	dropReasons     = append(append([]string(nil), linkDropReasons...), nodeDropReasons...)
)

// simCounts are the simulated (virtual-time) statistics of one rep,
// read back from the world registries. They must repeat exactly for
// the same inputs; their hash is the rep's sim_digest.
type simCounts struct {
	sends, delivered int64
	drops            map[string]int64
	switchReceived   int64
	forwards         int64
	deflections      int64
	encaps           int64
	edgeReencodes    int64
	ctrlReencodes    int64
	pastEvents       int64
	tcpRetransmits   int64
	tcpGoodputBytes  int64
	// extra carries workload-level statistics that are not registry
	// counters (FlowSet sent/received/hops).
	extra map[string]int64
}

func readCounts(reg *telemetry.Registry) simCounts {
	c := simCounts{
		sends:           reg.SumCounter("kar_net_sends_total"),
		delivered:       reg.SumCounter("kar_net_delivered_total"),
		drops:           make(map[string]int64),
		switchReceived:  reg.SumCounter("kar_switch_received_total"),
		forwards:        reg.SumCounter("kar_switch_forwards_total"),
		encaps:          reg.SumCounter("kar_edge_encap_total"),
		deflections:     reg.SumCounter("kar_switch_deflections_total"),
		edgeReencodes:   reg.SumCounter("kar_edge_reencode_total"),
		ctrlReencodes:   reg.SumCounter("kar_ctrl_reencode_total"),
		pastEvents:      reg.SumCounter("kar_sched_past_events_total"),
		tcpRetransmits:  reg.SumCounter("kar_tcp_retransmits_total"),
		tcpGoodputBytes: reg.SumCounter("kar_tcp_goodput_bytes_total"),
		extra:           make(map[string]int64),
	}
	for _, r := range dropReasons {
		c.drops[r] = reg.SumCounter("kar_net_drops_total", "reason", r)
	}
	return c
}

func (c simCounts) linkDrops() int64 {
	var n int64
	for _, r := range linkDropReasons {
		n += c.drops[r]
	}
	return n
}

func (c simCounts) queueDrops() int64 { return c.drops["queue-full"] }

// digest hashes every simulated statistic in a fixed order.
func (c simCounts) digest() string {
	var b strings.Builder
	put := func(k string, v int64) { fmt.Fprintf(&b, "%s=%d\n", k, v) }
	put("sends", c.sends)
	put("delivered", c.delivered)
	for _, r := range dropReasons {
		put("drop."+r, c.drops[r])
	}
	put("switch_received", c.switchReceived)
	put("forwards", c.forwards)
	put("encaps", c.encaps)
	put("deflections", c.deflections)
	put("edge_reencodes", c.edgeReencodes)
	put("ctrl_reencodes", c.ctrlReencodes)
	put("tcp_retransmits", c.tcpRetransmits)
	put("tcp_goodput_bytes", c.tcpGoodputBytes)
	keys := make([]string, 0, len(c.extra))
	for k := range c.extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		put(k, c.extra[k])
	}
	return hashString(b.String())
}

func hashString(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// conserved checks packet conservation: every packet a link accepted
// was delivered, lost on the link, or is still in flight; nothing was
// scheduled into the past. drained additionally requires that nothing
// is left in flight.
func (c simCounts) conserved(drained bool) error {
	if c.pastEvents != 0 {
		return fmt.Errorf("kar_sched_past_events_total = %d, want 0", c.pastEvents)
	}
	accounted := c.delivered + c.linkDrops()
	if c.sends < accounted {
		return fmt.Errorf("conservation: sends %d < delivered %d + link drops %d", c.sends, c.delivered, c.linkDrops())
	}
	if drained && c.sends != accounted {
		return fmt.Errorf("conservation after drain: sends %d != delivered %d + link drops %d", c.sends, c.delivered, c.linkDrops())
	}
	if c.delivered == 0 {
		return fmt.Errorf("no hops delivered")
	}
	return nil
}

// digestSet folds per-input digests (serve_mix: one per job kind and
// seed) into one, independent of how many times each input ran.
func digestSet(m map[string]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s\n", k, m[k])
	}
	return hashString(b.String())
}
