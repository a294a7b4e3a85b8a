/* Compiled search kernels over 64-bit adjacency masks.

   Mirrors boxham._pykernels function for function: the same search
   trees, visited in ascending bit order, so the same results and node
   counts.  Vertices are 0-indexed bit positions.  Every entry point takes
   at most 64 vertices (boxham.kernels routes larger graphs to the pure
   backend), raises ValueError when len(adj) != n or n > 64, and clips each
   mask to the low n bits.  The searches recurse once per decided vertex,
   so their depth is at most 64.

   Built by setup.py as the optional extension boxham._ckernels; without
   it the package runs on the pure kernels. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <time.h>

typedef unsigned long long u64;

#define MAX_ORDER 64
#define TIME_CHECK_STRIDE 4096

static inline int popcount(u64 x) { return __builtin_popcountll(x); }
static inline int ctz(u64 x) { return __builtin_ctzll(x); }
static inline u64 lowbit(u64 x) { return x & (0 - x); }

static inline u64 full_mask(Py_ssize_t n)
{
    /* shifting a 64-bit word by 64 is undefined behavior in C */
    return n >= 64 ? ~(u64)0 : ((u64)1 << n) - 1;
}

static double monotonic(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return ts.tv_sec + ts.tv_nsec * 1e-9;
}

/* ------------------------------------------------------------------------
   argument conversion */

/* Clip a Python int to the low n bits. */
static int read_mask(PyObject *obj, Py_ssize_t n, u64 *out)
{
    u64 m = PyLong_AsUnsignedLongLongMask(obj);
    if (m == (u64)-1 && PyErr_Occurred())
        return -1;
    *out = m & full_mask(n);
    return 0;
}

static int read_adj(Py_ssize_t n, PyObject *adj_list, u64 *adj)
{
    if (n < 0 || n > MAX_ORDER) {
        PyErr_Format(PyExc_ValueError, "order %zd is outside 0..%d", n, MAX_ORDER);
        return -1;
    }
    PyObject *seq = PySequence_Fast(adj_list, "adj must be a sequence of masks");
    if (seq == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(seq) != n) {
        PyErr_Format(PyExc_ValueError, "adj has %zd masks for order %zd",
                     PySequence_Fast_GET_SIZE(seq), n);
        Py_DECREF(seq);
        return -1;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        if (read_mask(PySequence_Fast_GET_ITEM(seq, i), n, &adj[i]) < 0) {
            Py_DECREF(seq);
            return -1;
        }
    }
    Py_DECREF(seq);
    return 0;
}

/* ------------------------------------------------------------------------
   node budget */

typedef struct {
    long long nodes;
    int has_cap;
    long long max_nodes;
    int has_deadline;
    double deadline;        /* time.monotonic() seconds */
    long long next_check;
} Budget;

/* An optional int argument: *have is 0 for None. */
static int read_optional_ll(PyObject *obj, int *have, long long *out)
{
    *have = obj != Py_None;
    *out = *have ? PyLong_AsLongLong(obj) : 0;
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

static int init_budget(Budget *b, PyObject *max_nodes, PyObject *deadline)
{
    b->nodes = 0;
    b->next_check = TIME_CHECK_STRIDE;
    b->has_deadline = deadline != Py_None;
    b->deadline = b->has_deadline ? PyFloat_AsDouble(deadline) : 0.0;
    if (b->deadline == -1.0 && PyErr_Occurred())
        return -1;
    return read_optional_ll(max_nodes, &b->has_cap, &b->max_nodes);
}

/* Count one search node; nonzero when the budget ran out.  The node past
   the cap is counted before the search stops. */
static inline int charge(Budget *b)
{
    b->nodes++;
    if (b->has_cap && b->nodes > b->max_nodes)
        return 1;
    if (b->has_deadline && b->nodes >= b->next_check) {
        b->next_check = b->nodes + TIME_CHECK_STRIDE;
        if (monotonic() > b->deadline)
            return 1;
    }
    return 0;
}

/* ------------------------------------------------------------------------
   components */

/* The vertices reachable from start_bit inside region, start_bit included. */
static u64 reach(const u64 *adj, u64 region, u64 start_bit)
{
    u64 seen = start_bit, frontier = start_bit;
    while (frontier) {
        u64 nxt = 0;
        for (u64 m = frontier; m; m &= m - 1)
            nxt |= adj[ctz(m)];
        frontier = nxt & region & ~seen;
        seen |= frontier;
    }
    return seen;
}

static inline int connected_within(const u64 *adj, u64 region, u64 start_bit)
{
    return (reach(adj, region, start_bit) & region) == region;
}

static int components(const u64 *adj, u64 alive)
{
    int count = 0;
    for (u64 rest = alive; rest; count++)
        rest &= ~reach(adj, alive, lowbit(rest));
    return count;
}

static int isolated(const u64 *adj, u64 alive)
{
    int count = 0;
    for (u64 m = alive; m; m &= m - 1)
        if (!(adj[ctz(m)] & alive))
            count++;
    return count;
}

static PyObject *count_alive(PyObject *args, PyObject *kw,
                             int (*count)(const u64 *, u64))
{
    static char *kwlist[] = {"adj", "alive", NULL};
    PyObject *adj_list, *alive_obj;
    u64 adj[MAX_ORDER], alive;
    if (!PyArg_ParseTupleAndKeywords(args, kw, "OO", kwlist, &adj_list, &alive_obj))
        return NULL;
    Py_ssize_t n = PyObject_Length(adj_list);
    if (n < 0 || read_adj(n, adj_list, adj) < 0 || read_mask(alive_obj, n, &alive) < 0)
        return NULL;
    return PyLong_FromLong(count(adj, alive));
}

static PyObject *py_count_components(PyObject *self, PyObject *args, PyObject *kw)
{
    return count_alive(args, kw, components);
}

static PyObject *py_count_isolated(PyObject *self, PyObject *args, PyObject *kw)
{
    return count_alive(args, kw, isolated);
}

/* ------------------------------------------------------------------------
   Hamiltonian cycle and spanning path */

/* what a search step returns */
enum { EXHAUSTED = 0, FOUND = 1, OUT_OF_BUDGET = 2 };

typedef struct {
    u64 adj[MAX_ORDER];
    u64 forced[MAX_ORDER];  /* degree-2 neighbours, whose edges a cycle uses */
    u64 full;
    int path[MAX_ORDER];
    Budget bud;
} Search;

static int hc_extend(Search *s, int u, u64 visited, int prev, int depth)
{
    const u64 *adj = s->adj;
    if (charge(&s->bud))
        return OUT_OF_BUDGET;
    u64 rest = s->full & ~visited;
    if (!rest) {
        if (!(adj[u] & 1))
            return EXHAUSTED;
        if (s->forced[u] & ~(((u64)1 << prev) | 1))
            return EXHAUSTED;
        if (s->forced[0] & ~(((u64)1 << s->path[1]) | ((u64)1 << u)))
            return EXHAUSTED;
        return FOUND;
    }
    /* every unvisited vertex keeps two usable connections: the unvisited
       region, the path head or the start vertex */
    for (u64 m = rest; m; m &= m - 1) {
        u64 aw = adj[ctz(m)];
        if (popcount(aw & rest) + (int)((aw >> u) & 1) + (int)(aw & 1) < 2)
            return EXHAUSTED;
    }
    if (!(adj[0] & rest))
        return EXHAUSTED;
    if (!connected_within(adj, rest | ((u64)1 << u), (u64)1 << u))
        return EXHAUSTED;
    u64 pbit = prev >= 0 ? (u64)1 << prev : 0;
    for (u64 cands = adj[u] & rest; cands; cands &= cands - 1) {
        u64 b = lowbit(cands);
        if (prev >= 0 && (s->forced[u] & ~(pbit | b)))
            continue;
        s->path[depth] = ctz(b);
        int res = hc_extend(s, ctz(b), visited | b, u, depth + 1);
        if (res != EXHAUSTED)
            return res;
    }
    return EXHAUSTED;
}

static int hp_extend(Search *s, int u, u64 visited, int depth)
{
    const u64 *adj = s->adj;
    if (charge(&s->bud))
        return OUT_OF_BUDGET;
    u64 rest = s->full & ~visited;
    if (!rest)
        return FOUND;
    /* every unvisited vertex needs a live connection; at most one may rely
       on a single connection (it must then end the path) */
    int weak = 0;
    for (u64 m = rest; m; m &= m - 1) {
        u64 aw = adj[ctz(m)];
        int avail = popcount(aw & rest) + (int)((aw >> u) & 1);
        if (avail == 0)
            return EXHAUSTED;
        if (avail == 1 && ++weak > 1)
            return EXHAUSTED;
    }
    if (!connected_within(adj, rest | ((u64)1 << u), (u64)1 << u))
        return EXHAUSTED;
    for (u64 cands = adj[u] & rest; cands; cands &= cands - 1) {
        s->path[depth] = ctz(cands);
        int res = hp_extend(s, ctz(cands), visited | lowbit(cands), depth + 1);
        if (res != EXHAUSTED)
            return res;
    }
    return EXHAUSTED;
}

/* Parse (n, adj, max_nodes=None, deadline=None) for a path search; n >= 1. */
static int parse_search(PyObject *args, PyObject *kw, Search *s, Py_ssize_t *n)
{
    static char *kwlist[] = {"n", "adj", "max_nodes", "deadline", NULL};
    PyObject *adj_list, *max_nodes = Py_None, *deadline = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kw, "nO|OO", kwlist,
                                     n, &adj_list, &max_nodes, &deadline))
        return -1;
    if (*n < 1) {
        PyErr_SetString(PyExc_ValueError, "a path search needs at least one vertex");
        return -1;
    }
    if (read_adj(*n, adj_list, s->adj) < 0 || init_budget(&s->bud, max_nodes, deadline) < 0)
        return -1;
    s->full = full_mask(*n);
    return 0;
}

/* (status, 0-indexed vertex tuple or None, nodes) */
static PyObject *search_result(int res, const int *path, Py_ssize_t n, long long nodes)
{
    if (res != FOUND)
        return Py_BuildValue("sOL", res == OUT_OF_BUDGET ? "unknown" : "none",
                             Py_None, nodes);
    PyObject *order = PyTuple_New(n);
    if (order == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *v = PyLong_FromLong(path[i]);
        if (v == NULL) {
            Py_DECREF(order);
            return NULL;
        }
        PyTuple_SET_ITEM(order, i, v);
    }
    return Py_BuildValue("sNL", "found", order, nodes);
}

static PyObject *py_ham_cycle(PyObject *self, PyObject *args, PyObject *kw)
{
    Search s;
    Py_ssize_t n;
    if (parse_search(args, kw, &s, &n) < 0)
        return NULL;
    if (n == 1)
        return search_result(EXHAUSTED, NULL, 0, 0);
    if (n == 2) {
        /* one edge traversed both ways counts as a closed spanning walk */
        s.path[0] = 0;
        s.path[1] = 1;
        return search_result((s.adj[0] & 2) ? FOUND : EXHAUSTED, s.path, 2, 0);
    }
    for (Py_ssize_t v = 0; v < n; v++)
        if (popcount(s.adj[v]) < 2)
            return search_result(EXHAUSTED, NULL, 0, 0);
    for (Py_ssize_t v = 0; v < n; v++) {
        u64 f = 0;
        for (u64 m = s.adj[v]; m; m &= m - 1)
            if (popcount(s.adj[ctz(m)]) == 2)
                f |= lowbit(m);
        if (popcount(f) > 2)
            return search_result(EXHAUSTED, NULL, 0, 0);
        s.forced[v] = f;
    }
    s.path[0] = 0;
    int res = hc_extend(&s, 0, 1, -1, 1);
    return search_result(res, s.path, n, s.bud.nodes);
}

static PyObject *py_ham_path(PyObject *self, PyObject *args, PyObject *kw)
{
    Search s;
    Py_ssize_t n;
    if (parse_search(args, kw, &s, &n) < 0)
        return NULL;
    if (n == 1) {
        s.path[0] = 0;
        return search_result(FOUND, s.path, 1, 0);
    }
    /* degree-1 vertices must end the path: start only from the smallest */
    int first_leaf = -1, leaves = 0;
    for (Py_ssize_t v = 0; v < n; v++) {
        int deg = popcount(s.adj[v]);
        if (deg == 0)
            return search_result(EXHAUSTED, NULL, 0, 0);
        if (deg == 1 && leaves++ == 0)
            first_leaf = (int)v;
    }
    if (leaves > 2)
        return search_result(EXHAUSTED, NULL, 0, 0);
    int first = first_leaf >= 0 ? first_leaf : 0;
    int last = first_leaf >= 0 ? first_leaf : (int)n - 1;
    int res = EXHAUSTED;
    for (int start = first; start <= last && res == EXHAUSTED; start++) {
        s.path[0] = start;
        res = hp_extend(&s, start, (u64)1 << start, 1);
    }
    return search_result(res, s.path, n, s.bud.nodes);
}

/* ------------------------------------------------------------------------
   scattering maximization (branch and bound) */

typedef struct {
    u64 adj[MAX_ORDER];
    int n;
    u64 full;
    Budget bud;
    int have_best, stopped, have_prune, have_stop;
    long long best_val, prune_at, stop_above;
    u64 best_mask;
} Scatter;

static int greedy_matching(const u64 *adj, u64 alive)
{
    int size = 0;
    u64 avail = alive;
    while (avail) {
        u64 b = lowbit(avail);
        avail ^= b;
        u64 cand = adj[ctz(b)] & avail;
        if (cand) {
            avail ^= lowbit(cand);
            size++;
        }
    }
    return size;
}

/* 0, or OUT_OF_BUDGET */
static int scat(Scatter *s, int idx, u64 s_mask, u64 kept)
{
    if (s->stopped)
        return 0;
    if (charge(&s->bud))
        return OUT_OF_BUDGET;
    if (idx == s->n) {
        int c = components(s->adj, kept);
        if (c >= 2) {
            long long val = c - popcount(s_mask);
            if (!s->have_best || val > s->best_val) {
                s->best_val = val;
                s->best_mask = s_mask;
                s->have_best = 1;
                if (s->have_stop && val > s->stop_above)
                    s->stopped = 1;
            }
        }
        return 0;
    }
    /* putting every undecided vertex back adds at most one component each,
       tempered by a greedy matching on them */
    u64 undecided = s->full & ~(((u64)1 << idx) - 1);
    long long ub = components(s->adj, kept) + popcount(undecided)
                   - greedy_matching(s->adj, undecided) - popcount(s_mask);
    int have_floor = s->have_prune;
    long long floor = s->prune_at;
    if (s->have_best && (!have_floor || s->best_val > floor)) {
        floor = s->best_val;
        have_floor = 1;
    }
    if (have_floor && ub <= floor)
        return 0;
    u64 bit = (u64)1 << idx;
    /* all neighbours already removed: keeping idx dominates removing it */
    if (!(s->adj[idx] & (s->full & ~s_mask & ~bit)))
        return scat(s, idx + 1, s_mask, kept | bit);
    if (scat(s, idx + 1, s_mask | bit, kept))
        return OUT_OF_BUDGET;
    if (!s->stopped)
        return scat(s, idx + 1, s_mask, kept | bit);
    return 0;
}

static PyObject *py_scattering_max(PyObject *self, PyObject *args, PyObject *kw)
{
    static char *kwlist[] = {"n", "adj", "prune_at", "stop_above",
                             "max_nodes", "deadline", NULL};
    PyObject *adj_list, *prune_at = Py_None, *stop_above = Py_None;
    PyObject *max_nodes = Py_None, *deadline = Py_None;
    Py_ssize_t n;
    Scatter s = {0};
    if (!PyArg_ParseTupleAndKeywords(args, kw, "nO|OOOO", kwlist, &n, &adj_list,
                                     &prune_at, &stop_above, &max_nodes, &deadline)
        || read_adj(n, adj_list, s.adj) < 0
        || read_optional_ll(prune_at, &s.have_prune, &s.prune_at) < 0
        || read_optional_ll(stop_above, &s.have_stop, &s.stop_above) < 0
        || init_budget(&s.bud, max_nodes, deadline) < 0)
        return NULL;
    s.n = (int)n;
    s.full = full_mask(n);
    int res = scat(&s, 0, 0, 0);
    const char *status = res == OUT_OF_BUDGET ? "unknown"
                         : s.stopped ? "stopped" : "complete";
    if (!s.have_best)
        return Py_BuildValue("sOOL", status, Py_None, Py_None, s.bud.nodes);
    return Py_BuildValue("sLKL", status, s.best_val, s.best_mask, s.bud.nodes);
}

/* ------------------------------------------------------------------------
   exact toughness scan */

/* Order on equal-size vertex sets: ascending-tuple lexicographic. */
static inline int lex_smaller(u64 a, u64 b)
{
    return a != b && (a & lowbit(a ^ b)) != 0;
}

/* Sets S by increasing |S|, each size in Gosper's numeric order; no set of
   size s or more beats s / (n - s), since c(G - S) <= n - |S|, so the scan
   stops before the first size with s * best_c >= best_s * (n - s).  Ties go
   to the smaller |S| (found first), then to lex order. */
static PyObject *py_toughness_scan(PyObject *self, PyObject *args, PyObject *kw)
{
    static char *kwlist[] = {"n", "adj", NULL};
    PyObject *adj_list;
    Py_ssize_t n;
    u64 adj[MAX_ORDER];
    if (!PyArg_ParseTupleAndKeywords(args, kw, "nO", kwlist, &n, &adj_list)
        || read_adj(n, adj_list, adj) < 0)
        return NULL;
    u64 full = full_mask(n), best_mask = 0, subsets = 0;
    int have = 0, best_size = 0, best_c = 0;
    for (int size = 0; size < n; size++) {  /* S = V leaves nothing to count */
        if (have && (long long)size * best_c >= (long long)best_size * (n - size))
            break;
        /* the last set of this size holds the top size bits */
        u64 mask = full_mask(size), last = full & ~full_mask(n - size);
        for (;;) {
            subsets++;
            int c = components(adj, full & ~mask);
            /* size/c < best_size/best_c, then lex order within the size */
            long long lhs = (long long)size * best_c, rhs = (long long)best_size * c;
            if (c >= 2 && (!have || lhs < rhs
                           || (lhs == rhs && size == best_size && lex_smaller(mask, best_mask)))) {
                best_size = size;
                best_c = c;
                best_mask = mask;
                have = 1;
            }
            if (mask == last)
                break;
            /* Gosper: the next larger mask with the same popcount */
            u64 low = lowbit(mask), ripple = mask + low;
            mask = (((ripple ^ mask) >> 2) / low) | ripple;
        }
    }
    if (!have)
        Py_RETURN_NONE;
    return Py_BuildValue("iiKK", best_size, best_c, best_mask, subsets);
}

/* ------------------------------------------------------------------------
   module */

#define KERNEL(name, sig, doc) \
    {#name, (PyCFunction)(void (*)(void))py_##name, METH_VARARGS | METH_KEYWORDS, \
     #name sig "\n--\n\n" doc}

static PyMethodDef methods[] = {
    KERNEL(count_components, "($module, adj, alive)",
           "Connected components among the vertices of alive."),
    KERNEL(count_isolated, "($module, adj, alive)",
           "Vertices of alive with no neighbour in alive."),
    KERNEL(ham_cycle, "($module, n, adj, max_nodes=None, deadline=None)",
           "(status, order or None, nodes) of the Hamiltonian cycle search from vertex 0."),
    KERNEL(ham_path, "($module, n, adj, max_nodes=None, deadline=None)",
           "(status, order or None, nodes) of the spanning path search."),
    KERNEL(scattering_max, "($module, n, adj, prune_at=None, stop_above=None, "
                           "max_nodes=None, deadline=None)",
           "(status, best value, best mask, nodes) maximizing c(G - S) - |S|."),
    KERNEL(toughness_scan, "($module, n, adj)",
           "(size, components, mask, subsets counted) minimizing |S| / c(G - S), or None."),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "boxham._ckernels",
    "Compiled search kernels over 64-bit adjacency masks; see boxham._pykernels.",
    -1, methods,
};

PyMODINIT_FUNC PyInit__ckernels(void)
{
    return PyModule_Create(&module);
}
