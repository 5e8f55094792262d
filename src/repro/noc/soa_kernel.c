/* Compiled per-cycle kernels of the structure-of-arrays NoC backend.
 *
 * A scalar C port of the NumPy kernels in soa_step.py: the same inject and
 * switch phases, operating in place on the flat state arrays of
 * SoAMeshNetwork (and of its batched disjoint-union subclass, which differs
 * only in the tables it installs).  Every decision reproduces the NumPy
 * kernel exactly -- candidates in ascending VC order, winners by minimum
 * rotation key per (router, output) slot, all pops before all pushes -- so
 * the two kernels are fingerprint-identical and the NumPy one serves as the
 * equivalence oracle.
 *
 * Packets live in a columnar registry (one int64 column per field, see the
 * COL_* indices) that the kernels write in place: ingress appends rows and
 * source-queue flits, inject stamps the injection cycle, switch stamps the
 * ejection cycle and appends to the delivered log.  Per-episode counters
 * (CNT_*) are kept alongside, so no per-packet Python runs on the cycle path.
 *
 * Routing is never derived here: the output slot comes from the same
 * precomputed tables the NumPy kernel gathers from (the fused XY
 * route_slot table, or the fault-aware route3 table plus the bound
 * wormhole direction).  Networks without a route table are switched by the
 * NumPy kernel.
 *
 * The window driver (soa_run) strings whole cycles together -- emit every
 * traffic source, ingress, inject, switch, accumulate occupancy -- up to a
 * boundary the caller picks, so the caller returns to Python once per
 * sampling window instead of once per cycle.  Emitters draw from each
 * source's own NumPy bit generator through NumPy's distribution code
 * (libnpyrandom.a), so the streams equal NumPy's by construction.  The
 * driver knows nothing of episodes: it runs one network, episode 0.
 *
 * Flit words: packet_id << 21 | is_tail << 20 | flit_index.
 * Flat VC id:  q = (node * 5 + port_direction) * num_vcs + vc.
 */

#include <stdbool.h>
#include <stdint.h>
#include <string.h>

#include "numpy/random/bitgen.h"

/* NumPy's own distribution code, linked from numpy/random/lib/libnpyrandom.a
 * (the prototypes of numpy/random/distributions.h, which needs Python.h). */
void random_standard_uniform_fill(bitgen_t *state, intptr_t cnt, double *out);
void random_bounded_uint64_fill(bitgen_t *state, uint64_t off, uint64_t rng,
                                intptr_t cnt, bool use_masked, uint64_t *out);

#define FIDX_MASK ((INT64_C(1) << 20) - 1)
#define TAIL_BIT (INT64_C(1) << 20)
#define PKT_SHIFT 21
#define KEY_PERIOD 60
#define BIG_KEY (INT32_C(1) << 30)

/* Packet registry columns (rows of one (REG_COLUMNS, reg_capacity) int64
 * table); LOG is the delivered log, one packet id per tail ejection. */
enum {
    COL_SOURCE, COL_DEST, COL_SIZE, COL_CREATED, COL_INJECTED, COL_EJECTED,
    COL_MALICIOUS, COL_EPISODE, COL_LOG, REG_COLUMNS
};
/* Per-episode counters (rows of one (episodes, NUM_COUNTS) int64 table). */
enum {
    CNT_CREATED, CNT_INJECTED, CNT_DELIVERED, CNT_FLITS_DELIVERED,
    CNT_MAL_CREATED, CNT_MAL_DELIVERED, CNT_DROPPED, CNT_UNROUTABLE, NUM_COUNTS
};

/* Every field is 8 bytes wide so the ctypes mirror in soa_step.py has no
 * padding to get wrong; soa_state_size() lets the loader check the layout. */
typedef struct {
    int64_t num_nodes;  /* array nodes: every episode block of a batch */
    int64_t episode_nodes; /* nodes per episode block */
    int64_t episodes;
    int64_t episode_q;  /* VC slots per episode block */
    int64_t num_vcs;
    int64_t depth;
    int64_t capacity;   /* source-queue ring length */
    int64_t bandwidth;  /* injection passes per cycle */
    int64_t dynamic;    /* 1 when the fault-aware route3 table is active */
    int64_t reg_capacity; /* rows allocated per registry column */
    int64_t in_capacity;  /* entries of the ingress input buffers */
    int64_t occ_exact;    /* 1: occupancy sums as integers (num_vcs a power of 2) */
    /* virtual channels and ports */
    int64_t *vc_slots;
    int16_t *vc_head;
    int16_t *vc_count;
    int32_t *vc_alloc;
    int32_t *vc_down;
    int16_t *port_first_free;
    int64_t *node_vc;
    int64_t *buf_writes;
    int64_t *buf_reads;
    int64_t *occupied;
    int64_t *occ_sum_int;  /* windowed occupancy, exact integer form */
    double *occ_sum;       /* windowed occupancy, float form */
    /* source queues and injection limits */
    int64_t *sq_flat;
    int64_t *sq_head;
    int64_t *sq_count;
    double *limits;
    double *allowance;
    /* packet registry, its fill levels and the per-episode counters */
    int64_t *reg;       /* (REG_COLUMNS, reg_capacity) */
    int64_t *reg_len;   /* [registry rows, delivered log entries] */
    int64_t *counts;    /* (episodes, NUM_COUNTS) */
    int64_t *flits_ejected;   /* per node */
    int64_t *packets_ejected; /* per node */
    const uint8_t *routable;  /* (episode_nodes, episode_nodes), NULL when healthy */
    /* lookup tables */
    const int32_t *key_table;  /* (KEY_PERIOD, num_vc_slots), rows repeat per episode */
    const int64_t *down_port;
    const int32_t *route_slot;
    const int64_t *q_node_base;
    const int32_t *q_slot_off; /* NULL outside the batched union */
    const int8_t *route3;
    const int64_t *q_state_base;
    const int64_t *opposite;
    /* scratch and outputs */
    int32_t *best;             /* per slot, BIG_KEY between calls */
    void *cand;                /* Candidate scratch, one per VC slot */
    int64_t *pass_nodes;       /* inject revisit list */
    /* ingress input buffers: episode, episode-local source and destination */
    int64_t *in_lane;
    int64_t *in_src;
    int64_t *in_dst;
} SoaState;

/* One switch candidate: an occupied VC that could move this cycle. */
typedef struct {
    int64_t val;   /* head-of-line flit word */
    int32_t q;     /* source VC */
    int32_t slot;  /* (router, output) arbitration slot */
    int32_t down;  /* downstream VC, -1 when ejecting */
    int32_t key;   /* rotation priority, lower wins */
} Candidate;

int64_t soa_state_size(void) { return (int64_t)sizeof(SoaState); }
int64_t soa_candidate_size(void) { return (int64_t)sizeof(Candidate); }
int64_t soa_registry_layout(void) { return REG_COLUMNS * 256 + NUM_COUNTS; }

/* The accept loop of soa_ingress, on checked input (registry room for
 * ``count`` rows, ids in range).  ``lanes`` is read only when ``lane`` < 0. */
static int64_t queue_packets(SoaState *s, int64_t count, int64_t lane,
                             const int64_t *lanes, const int64_t *srcs,
                             const int64_t *dsts, int64_t size, int64_t cycle,
                             int64_t malicious) {
    const int64_t n = s->episode_nodes;
    const int64_t cap = s->capacity;
    const int64_t rc = s->reg_capacity;
    int64_t *reg = s->reg;
    int64_t accepted = 0;
    for (int64_t i = 0; i < count; i++) {
        const int64_t ep = lane >= 0 ? lane : lanes[i];
        const int64_t src = srcs[i];
        const int64_t dst = dsts[i];
        const int64_t node = ep * n + src;
        int64_t *cnt = s->counts + ep * NUM_COUNTS;
        if (s->routable && !s->routable[src * n + dst]) {
            cnt[CNT_DROPPED] += 1;
            cnt[CNT_UNROUTABLE] += 1;
            continue;
        }
        const int64_t queued = s->sq_count[node];
        if (queued + size > cap) {
            cnt[CNT_DROPPED] += 1;
            continue;
        }
        const int64_t pid = s->reg_len[0]++;
        reg[COL_SOURCE * rc + pid] = src;
        reg[COL_DEST * rc + pid] = ep * n + dst;
        reg[COL_SIZE * rc + pid] = size;
        reg[COL_CREATED * rc + pid] = cycle;
        reg[COL_INJECTED * rc + pid] = -1;
        reg[COL_EJECTED * rc + pid] = -1;
        reg[COL_MALICIOUS * rc + pid] = malicious != 0;
        reg[COL_EPISODE * rc + pid] = ep;
        cnt[CNT_CREATED] += 1;
        if (malicious) cnt[CNT_MAL_CREATED] += 1;
        /* Flit words: ascending flit index, tail bit on the last. */
        int64_t *ring = s->sq_flat + node * cap;
        int64_t pos = s->sq_head[node] + queued;
        if (pos >= cap) pos -= cap;
        const int64_t word = pid << PKT_SHIFT;
        for (int64_t f = 0; f < size; f++) {
            ring[pos] = word | f | (f == size - 1 ? TAIL_BIT : 0);
            if (++pos == cap) pos = 0;
        }
        s->sq_count[node] = queued + size;
        accepted++;
    }
    return accepted;
}

/* Packet ingress: queue ``count`` packets of ``size`` flits created at
 * ``cycle``, read from in_src / in_dst (episode-local node ids) and, when
 * ``lane`` < 0, from in_lane (else every packet belongs to episode ``lane``).
 * Packets are taken in order with the per-packet semantics of
 * enqueue_packet, so duplicate sources in one batch see each other: a pair
 * unroutable from the start state, or a source queue without room for the
 * whole packet, counts one drop on the packet's episode.  An accepted packet
 * appends a registry row and its flits to the source-queue ring.
 *
 * Returns the number of packets accepted; -1 (no side effect) when the
 * registry has no room for ``count`` more rows or the input buffers are too
 * small, -2 (no side effect) when an id is out of range. */
int64_t soa_ingress(SoaState *s, int64_t count, int64_t lane, int64_t size,
                    int64_t cycle, int64_t malicious) {
    const int64_t n = s->episode_nodes;
    if (s->reg_len[0] + count > s->reg_capacity || count > s->in_capacity) return -1;
    for (int64_t i = 0; i < count; i++) {
        const int64_t ep = lane >= 0 ? lane : s->in_lane[i];
        if (ep < 0 || ep >= s->episodes || s->in_src[i] < 0 || s->in_src[i] >= n
            || s->in_dst[i] < 0 || s->in_dst[i] >= n)
            return -2;
    }
    if (size < 1) return -2;
    return queue_packets(s, count, lane, s->in_lane, s->in_src, s->in_dst, size,
                         cycle, malicious);
}

/* First unallocated VC of ``port``, or num_vcs when every VC is taken. */
static void refresh_first_free(SoaState *s, int64_t port) {
    const int64_t v = s->num_vcs;
    const int32_t *alloc = s->vc_alloc + port * v;
    int64_t first = 0;
    while (first < v && alloc[first] != -1) first++;
    s->port_first_free[port] = (int16_t)first;
}

/* One injection attempt at ``node``; returns 1 when a flit entered. */
static int inject_node(SoaState *s, int64_t node, int64_t cycle) {
    int64_t *injected = s->reg + COL_INJECTED * s->reg_capacity;
    const int64_t front = s->sq_head[node];
    const int64_t val = s->sq_flat[node * s->capacity + front];
    const int64_t pkt = val >> PKT_SHIFT;
    const int is_head = (val & FIDX_MASK) == 0;
    const int new_head = is_head && injected[pkt] < 0;
    const int throttled = s->limits[node] < 1.0;
    if (throttled && new_head && s->allowance[node] < 1.0) return 0;

    /* LOCAL-port VC: heads take the port's first free VC, body and tail
     * flits continue in the VC their head entered. */
    const int64_t local_port = node * 5;
    int64_t vc;
    if (is_head) {
        const int64_t first = s->port_first_free[local_port];
        if (first >= s->num_vcs) return 0;
        vc = local_port * s->num_vcs + first;
    } else {
        vc = s->node_vc[node];
        if (s->vc_count[vc] >= s->depth) return 0;
    }

    s->sq_head[node] = front + 1 == s->capacity ? 0 : front + 1;
    s->sq_count[node] -= 1;
    int64_t pos = s->vc_head[vc] + s->vc_count[vc];
    if (pos >= s->depth) pos -= s->depth;
    s->vc_slots[vc * s->depth + pos] = val;
    s->vc_count[vc] += 1;
    s->buf_writes[local_port] += 1;
    if (is_head) {
        s->vc_alloc[vc] = (int32_t)pkt;
        s->vc_down[vc] = -1;
        s->node_vc[node] = vc;
        s->occupied[local_port] += 1;
        refresh_first_free(s, local_port);
    }
    if (throttled) s->allowance[node] -= 1.0;
    if (new_head) {
        const int64_t episode = s->reg[COL_EPISODE * s->reg_capacity + pkt];
        injected[pkt] = cycle;
        s->counts[episode * NUM_COUNTS + CNT_INJECTED] += 1;
    }
    return 1;
}

/* Injection phase: stamps the injection cycle of every packet whose head
 * entered, in the NumPy kernel's order (pass by pass, ascending node). */
void soa_inject(SoaState *s, int64_t cycle) {
    const double bandwidth = (double)s->bandwidth;
    const int multipass = s->bandwidth > 1;
    int64_t revisit = 0;
    for (int64_t node = 0; node < s->num_nodes; node++) {
        if (s->limits[node] < 1.0) {
            /* Fractional credit, capped at one cycle's worth (separate
             * multiply and add: no FMA contraction). */
            const double credit = s->allowance[node] + s->limits[node] * bandwidth;
            s->allowance[node] = credit < bandwidth ? credit : bandwidth;
        }
        if (s->sq_count[node] > 0 && inject_node(s, node, cycle) && multipass
            && s->sq_count[node] > 0)
            s->pass_nodes[revisit++] = node;
    }
    for (int64_t pass = 1; pass < s->bandwidth && revisit; pass++) {
        int64_t kept = 0;
        for (int64_t i = 0; i < revisit; i++) {
            const int64_t node = s->pass_nodes[i];
            if (inject_node(s, node, cycle) && s->sq_count[node] > 0)
                s->pass_nodes[kept++] = node;
        }
        revisit = kept;
    }
}

/* Switch allocation plus link traversal.  Ejections update the per-node
 * counters; tail ejections stamp the ejection cycle, append to the delivered
 * log (ascending node order) and count on the packet's episode.  Returns the
 * number of flits ejected, or -1 when an unroutable head reached the switch
 * (excision invariant). */
int64_t soa_switch(SoaState *s, int64_t cycle) {
    const int64_t v = s->num_vcs;
    const int64_t depth = s->depth;
    const int64_t num_q = s->num_nodes * 5 * v;
    /* The batched union tiles one episode's key row, so only the row's
     * first block is read (episode-local VC id): it stays cache resident. */
    const int32_t *keys = s->key_table + (cycle % KEY_PERIOD) * num_q;
    const int16_t *count = s->vc_count;
    const int16_t *vc_head = s->vc_head;
    const int64_t *vc_slots = s->vc_slots;
    const int32_t *vc_down = s->vc_down;
    const int64_t rc = s->reg_capacity;
    const int64_t *pkt_dest = s->reg + COL_DEST * rc;
    const int16_t *first_free = s->port_first_free;
    const int64_t *down_port = s->down_port;
    int32_t *best = s->best;
    Candidate *cand = s->cand;
    int64_t n = 0;
    int64_t block = 0; /* first VC of the current episode block */

    /* Candidates: every occupied VC's head-of-line flit, decided on
     * start-of-cycle state.  Ineligible ones can never win and are dropped.
     * Most VCs are empty, so the scan skips four counts per 64-bit word. */
    for (int64_t q = 0; q < num_q; q++) {
        if ((q & 3) == 0 && q + 4 <= num_q) {
            uint64_t word;
            memcpy(&word, count + q, sizeof word);
            if (word == 0) {
                q += 3;
                continue;
            }
        }
        if (count[q] <= 0) continue;
        const int64_t val = vc_slots[q * depth + vc_head[q]];
        const int64_t dest = pkt_dest[val >> PKT_SHIFT];
        const int64_t cached = vc_down[q];
        int64_t slot;
        if (s->dynamic) {
            /* A live wormhole binding fixes the output its head took. */
            const int64_t out_dir = cached >= 0 ? s->opposite[(cached / v) % 5]
                                                : s->route3[s->q_state_base[q] + dest];
            if (out_dir < 0) {
                for (int64_t i = 0; i < n; i++) best[cand[i].slot] = BIG_KEY;
                return -1;
            }
            const int64_t port = q / v;
            slot = port - port % 5 + out_dir;
        } else {
            slot = s->route_slot[s->q_node_base[q] + dest];
            if (s->q_slot_off) slot += s->q_slot_off[q];
        }
        const int eject = slot % 5 == 0;
        int64_t down = cached >= 0 && count[cached] < depth ? cached : -1;
        if ((val & FIDX_MASK) == 0 && !eject) {
            const int64_t port = down_port[slot];
            const int64_t first = first_free[port];
            down = first < v ? port * v + first : -1;
        }
        if (!eject && down < 0) continue;
        while (q - block >= s->episode_q) block += s->episode_q;
        const int32_t key = keys[q - block];
        if (key < best[slot]) best[slot] = key;
        cand[n].val = val;
        cand[n].q = (int32_t)q;
        cand[n].slot = (int32_t)slot;
        cand[n].down = (int32_t)down;
        cand[n].key = key;
        n++;
    }

    /* Winners -- the minimum key of each slot; keys are unique within a
     * slot -- compacted in ascending VC order.  Pops apply as winners are
     * found: every decision was already taken on start-of-cycle state. */
    int64_t winners = 0;
    int64_t ejected = 0;
    for (int64_t i = 0; i < n; i++) {
        const Candidate c = cand[i];
        if (c.key != best[c.slot]) continue;
        best[c.slot] = BIG_KEY;
        const int64_t q = c.q;
        const int64_t port = q / v;
        const int64_t head = s->vc_head[q] + 1;
        s->vc_head[q] = (int16_t)(head == depth ? 0 : head);
        s->vc_count[q] -= 1;
        s->buf_reads[port] += 1;
        if (c.val & TAIL_BIT) {
            s->vc_alloc[q] = -1;
            s->vc_down[q] = -1;
            s->occupied[port] -= 1;
            if (q % v < s->port_first_free[port]) s->port_first_free[port] = (int16_t)(q % v);
        }
        if (c.slot % 5 == 0) {
            const int64_t node = port / 5;
            s->flits_ejected[node] += 1;
            if (c.val & TAIL_BIT) {
                const int64_t pkt = c.val >> PKT_SHIFT;
                int64_t *cnt = s->counts + s->reg[COL_EPISODE * rc + pkt] * NUM_COUNTS;
                s->packets_ejected[node] += 1;
                s->reg[COL_EJECTED * rc + pkt] = cycle;
                s->reg[COL_LOG * rc + s->reg_len[1]++] = pkt;
                cnt[CNT_DELIVERED] += 1;
                cnt[CNT_FLITS_DELIVERED] += s->reg[COL_SIZE * rc + pkt];
                cnt[CNT_MAL_DELIVERED] += s->reg[COL_MALICIOUS * rc + pkt];
            }
            ejected++;
            continue;
        }
        cand[winners++] = c;
    }

    /* Link traversals, after every pop (distinct destination VCs). */
    for (int64_t i = 0; i < winners; i++) {
        const int64_t src = cand[i].q;
        const int64_t dst = cand[i].down;
        const int64_t val = cand[i].val;
        const int64_t port = dst / v;
        int64_t pos = s->vc_head[dst] + s->vc_count[dst];
        if (pos >= depth) pos -= depth;
        s->vc_slots[dst * depth + pos] = val;
        s->vc_count[dst] += 1;
        s->buf_writes[port] += 1;
        if ((val & FIDX_MASK) == 0) {
            s->vc_alloc[dst] = (int32_t)(val >> PKT_SHIFT);
            s->vc_down[dst] = -1;
            s->occupied[port] += 1;
            refresh_first_free(s, port);
        }
        /* Wormhole: body flits follow the head; the tail releases. */
        s->vc_down[src] = val & TAIL_BIT ? -1 : (int32_t)dst;
    }
    return ejected;
}

/* ---- window driver ------------------------------------------------------ */

/* One traffic source of the window driver.  On each cycle it may emit, it
 * makes ``count`` uniform draws -- one per mesh node, or one per attack
 * flow: NumPy's ``rng.random(count)`` -- and keeps the draw indices below
 * their rate, in ascending order.  A uniform-random source then draws all
 * kept destinations in one bounded-integer call (NumPy's
 * ``rng.integers(0, span, size=k)``), skipping over the source itself; the
 * others read a destination per draw index.  Every field is 8 bytes wide. */
typedef struct {
    int64_t count;      /* draws per emitting cycle */
    int64_t size;       /* flits per packet */
    int64_t malicious;
    int64_t first;      /* first cycle that may emit */
    int64_t last;       /* one past the last cycle that may emit */
    int64_t span;       /* uniform-random destinations: mesh nodes - 1, else 0 */
    int64_t rate_base;  /* cycle of row 0 of ``rates`` */
    int64_t rate_rows;  /* rows of ``rates`` */
    int64_t generated;  /* packets drawn, summed over cycles (caller resets) */
    int64_t pending;    /* packets of the current cycle awaiting ingress */
    double rate;        /* per-draw rate when ``rates`` is NULL; 0 draws nothing */
    bitgen_t *bitgen;
    const int64_t *sources; /* source node per draw index, NULL: the index */
    const int64_t *targets; /* destination per draw index, NULL: uniform random */
    const double *rates;    /* (rate_rows, count) per-cycle rates, or NULL */
    const uint8_t *silent;  /* per rate row: 1 when that cycle draws nothing */
    double *uniform;        /* scratch, count entries */
    uint64_t *bounded;      /* scratch, count entries */
    int64_t *out_src;       /* the current cycle's packets, count entries */
    int64_t *out_dst;
} Emitter;

/* The emitters of one network and the driver's resume state: a call that
 * stops for registry growth leaves the stopped cycle's draws pending, and
 * the next call queues them instead of drawing again. */
typedef struct {
    int64_t count;      /* emitters */
    int64_t pending;    /* 1 while the current cycle's draws await ingress */
    int64_t need;       /* registry rows the pending cycle may take */
    Emitter *emitters;
} Driver;

int64_t soa_emitter_size(void) { return (int64_t)sizeof(Emitter); }
int64_t soa_driver_size(void) { return (int64_t)sizeof(Driver); }

/* Draw one cycle of ``e``; returns the packets it emits, or -1 when the
 * rate table does not cover ``cycle`` (nothing drawn). */
static int64_t emit(Emitter *e, int64_t cycle) {
    e->pending = 0;
    if (cycle < e->first || cycle >= e->last) return 0;
    const double *rates = NULL;
    if (e->rates) {
        const int64_t row = cycle - e->rate_base;
        if (row < 0 || row >= e->rate_rows) return -1;
        if (e->silent[row]) return 0;
        rates = e->rates + row * e->count;
    } else if (e->rate == 0.0) {
        return 0;
    }
    random_standard_uniform_fill(e->bitgen, e->count, e->uniform);
    /* Kept draw indices go to out_dst first, then become packets in place
     * (the write index never passes the read index). */
    int64_t drawn = 0;
    for (int64_t i = 0; i < e->count; i++)
        if (e->uniform[i] < (rates ? rates[i] : e->rate)) e->out_dst[drawn++] = i;
    e->generated += drawn;
    if (drawn == 0) return 0;
    if (e->span)
        random_bounded_uint64_fill(e->bitgen, 0, (uint64_t)(e->span - 1), drawn,
                                   false, e->bounded);
    int64_t kept = 0;
    for (int64_t j = 0; j < drawn; j++) {
        const int64_t i = e->out_dst[j];
        const int64_t src = e->sources ? e->sources[i] : i;
        int64_t dst;
        if (e->targets) {
            dst = e->targets[i];
        } else {
            dst = (int64_t)e->bounded[j];
            dst += dst >= src;
        }
        if (dst == src) continue; /* self-traffic never enters the network */
        e->out_src[kept] = src;
        e->out_dst[kept] = dst;
        kept++;
    }
    e->pending = kept;
    return kept;
}

/* Run cycles [cycle, stop): per cycle, every emitter in order draws and its
 * packets are queued (episode 0), then the inject and switch phases run and
 * the windowed occupancy accumulates -- the order of one per-cycle step.
 * Returns ``stop``; or the cycle it stopped at when the registry has no room
 * for that cycle's packets (the draws stay pending: grow the registry, then
 * call again from the returned cycle); -1 when an unroutable head reached
 * the switch; -2 when a rate table does not cover a cycle. */
int64_t soa_run(SoaState *s, Driver *d, int64_t cycle, int64_t stop) {
    const int64_t num_ports = s->num_nodes * 5;
    for (; cycle < stop; cycle++) {
        if (!d->pending) {
            int64_t need = 0;
            for (int64_t i = 0; i < d->count; i++) {
                const int64_t packets = emit(d->emitters + i, cycle);
                if (packets < 0) return -2;
                need += packets;
            }
            d->pending = 1;
            d->need = need;
        }
        if (s->reg_len[0] + d->need > s->reg_capacity) return cycle;
        for (int64_t i = 0; i < d->count; i++) {
            Emitter *e = d->emitters + i;
            if (e->pending)
                queue_packets(s, e->pending, 0, NULL, e->out_src, e->out_dst, e->size,
                              cycle, e->malicious);
            e->pending = 0;
        }
        d->pending = 0;
        soa_inject(s, cycle);
        if (soa_switch(s, cycle) < 0) return -1;
        if (s->occ_exact) {
            for (int64_t p = 0; p < num_ports; p++) s->occ_sum_int[p] += s->occupied[p];
        } else {
            const double vcs = (double)s->num_vcs;
            for (int64_t p = 0; p < num_ports; p++)
                s->occ_sum[p] += (double)s->occupied[p] / vcs;
        }
    }
    return stop;
}
