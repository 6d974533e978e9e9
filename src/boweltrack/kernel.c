/* The per-voxel passes of the tracker over C-ordered n0 x n1 x n2 volumes:
 * the wall filter's Gaussian derivative passes, and SLIC's (Achanta et al.,
 * TPAMI 2012) seed search, assignment step with its fallback for voxels no
 * window covers, update sums, same-label components and the connectivity
 * step's fragment merge.  Every function gives the bits of the scipy or
 * numpy code it replaced (scipy.ndimage, tests/oracles.py): it evaluates
 * each expression in double, in the order written here.  It must be
 * compiled without FMA contraction or fast-math reassociation.  A SLIC
 * feature is float32, or float64 when `wide` is nonzero.  No function
 * allocates memory: the callers in ridge.py and supervoxel.py pass every
 * buffer and check every length and type. */

#include <math.h>
#include <stdint.h>

/* The assignment and the Hessian run as AVX2 clones where the CPU has AVX2,
 * else as the default ones: same bits, since no FMA is allowed and sqrt
 * rounds correctly in both.  Only x86-64 glibc resolves clones at load
 * time. */
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define CLONES __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef CLONES
#define CLONES
#endif

static double at(const void *feat, int wide, int64_t v)
{
    return wide ? ((const double *)feat)[v] : (double)((const float *)feat)[v];
}

/* One window row of the assignment: a voxel takes cluster c only on a
 * strictly smaller D = |f - f_c| + s * sqrt(dxy + dz*dz), written without
 * a branch so that the loop vectorises. */
#define ASSIGN_ROW(name, T)                                                          \
    static inline void name(int64_t k0, int64_t k1, const T *restrict f,             \
                            const double *restrict pos2, double cz, double dxy,      \
                            double fc, double s, int32_t c, int32_t *restrict label, \
                            double *restrict dist)                                   \
    {                                                                                \
        for (int64_t k = k0; k < k1; k++) {                                          \
            double dz = pos2[k] - cz;                                                \
            double d = fabs((double)f[k] - fc) + s * sqrt(dxy + dz * dz);            \
            int better = d < dist[k];                                                \
            dist[k] = better ? d : dist[k];                                          \
            label[k] = better ? c : label[k];                                        \
        }                                                                            \
    }
ASSIGN_ROW(assign_row_f32, float)
ASSIGN_ROW(assign_row_f64, double)

/* Each voxel of the axis-0 rows row0..row1 still labeled -1 takes, of all
 * clusters, the lowest id with the smallest
 * D = |f - f_c| + s_c * sqrt((dx*dx + dy*dy) + dz*dz), or the first whose D
 * is NaN: `np.argmin` of `np.linalg.norm`'s distances. */
static void nearest(const void *feat, int wide, int64_t n1, int64_t n2, const double *pos0,
                    const double *pos1, const double *pos2, int64_t n_clusters,
                    const double *centers, const double *cluster_feat, const double *scale,
                    int64_t row0, int64_t row1, int32_t *label)
{
    for (int64_t i = row0, v = row0 * n1 * n2; i < row1; i++)
        for (int64_t j = 0; j < n1; j++)
            for (int64_t k = 0; k < n2; k++, v++) {
                if (label[v] >= 0)
                    continue;
                double f = at(feat, wide, v), best_d = INFINITY;
                int64_t best = 0;
                for (int64_t c = 0; c < n_clusters; c++) {
                    const double *ctr = centers + 3 * c;
                    double dx = pos0[i] - ctr[0], dy = pos1[j] - ctr[1], dz = pos2[k] - ctr[2];
                    double d = fabs(f - cluster_feat[c])
                               + scale[c] * sqrt((dx * dx + dy * dy) + dz * dz);
                    if (isnan(d)) {
                        best = c;
                        break;
                    }
                    if (c == 0 || d < best_d) {
                        best_d = d;
                        best = c;
                    }
                }
                label[v] = (int32_t)best;
            }
}

/* One assignment step over the axis-0 rows row0..row1: clusters in id order
 * over their windows lo..hi (per axis, end exclusive), clipped to the rows.
 * Voxels no window covers keep distance +inf and take the nearest cluster
 * overall. */
CLONES
void slic_assign(const void *feat, int wide, int64_t n1, int64_t n2,
                 const double *pos0, const double *pos1, const double *pos2,
                 int64_t n_clusters, const double *centers, const double *cluster_feat,
                 const double *scale, const int64_t *lo, const int64_t *hi,
                 int64_t row0, int64_t row1, int32_t *label, double *dist)
{
    for (int64_t v = row0 * n1 * n2; v < row1 * n1 * n2; v++) {
        label[v] = -1;
        dist[v] = INFINITY;
    }
    for (int64_t c = 0; c < n_clusters; c++) {
        const double *ctr = centers + 3 * c;
        const int64_t *l = lo + 3 * c, *h = hi + 3 * c;
        int64_t i0 = l[0] > row0 ? l[0] : row0, i1 = h[0] < row1 ? h[0] : row1;
        for (int64_t i = i0; i < i1; i++) {
            double dx = pos0[i] - ctr[0];
            for (int64_t j = l[1]; j < h[1]; j++) {
                double dy = pos1[j] - ctr[1];
                double dxy = dx * dx + dy * dy;
                int64_t row = (i * n1 + j) * n2;
                if (wide)
                    assign_row_f64(l[2], h[2], (const double *)feat + row, pos2, ctr[2], dxy,
                                   cluster_feat[c], scale[c], (int32_t)c, label + row, dist + row);
                else
                    assign_row_f32(l[2], h[2], (const float *)feat + row, pos2, ctr[2], dxy,
                                   cluster_feat[c], scale[c], (int32_t)c, label + row, dist + row);
            }
        }
    }
    nearest(feat, wide, n1, n2, pos0, pos1, pos2, n_clusters, centers, cluster_feat, scale, row0,
            row1, label);
}

/* `np.minimum` and `np.maximum` of the extreme held and a new value: the
 * new one on a tie, so -0.0 and 0.0 keep the later, and NaN once seen. */
#define NP_MIN(a, b) (((a) < (b)) | isnan(a) ? (a) : (b))
#define NP_MAX(a, b) (((a) > (b)) | isnan(a) ? (a) : (b))

/* Each label's voxel count, coordinate sums (3 rows of n_clusters) and,
 * given a C-ordered feature, its sum and extremes in its own type, added in
 * raster order to what the arrays hold, as `np.add.at`, `np.minimum.at` and
 * `np.maximum.at` do.  The labels are read with the element strides s0, s1
 * and s2, so a loaded F-ordered labeling needs no copy.  Returns 0, or -1
 * at a label outside 0..n_clusters-1. */
int64_t slic_sums(const int32_t *labels, int64_t s0, int64_t s1, int64_t s2,
                  int64_t n0, int64_t n1, int64_t n2,
                  const double *pos0, const double *pos1, const double *pos2,
                  int64_t n_clusters, const void *feat, int wide, int64_t *counts,
                  double *sums, double *fsums, void *fmin, void *fmax)
{
    double *sum0 = sums, *sum1 = sums + n_clusters, *sum2 = sums + 2 * n_clusters;
    float *lo32 = fmin, *hi32 = fmax;
    double *lo64 = fmin, *hi64 = fmax;
    for (int64_t i = 0; i < n0; i++)
        for (int64_t j = 0; j < n1; j++) {
            const int32_t *row = labels + i * s0 + j * s1;
            int64_t v = (i * n1 + j) * n2;
            /* One run of equal labels at a time, added up in registers: the
             * same additions, in the same order, as one per voxel.  A float
             * compares as its double does, and converts back exactly. */
            for (int64_t k = 0, start = 0; k < n2; start = k) {
                int32_t l = row[k * s2];
                if (l < 0 || l >= n_clusters)
                    return -1;
                double c0 = sum0[l], c1 = sum1[l], c2 = sum2[l], f = 0, lo = 0, hi = 0;
                if (feat) {
                    f = fsums[l];
                    lo = wide ? lo64[l] : lo32[l];
                    hi = wide ? hi64[l] : hi32[l];
                }
                for (; k < n2 && row[k * s2] == l; k++) {
                    c0 += pos0[i];
                    c1 += pos1[j];
                    c2 += pos2[k];
                    if (feat) {
                        double x = at(feat, wide, v + k);
                        f += x;
                        lo = NP_MIN(lo, x);
                        hi = NP_MAX(hi, x);
                    }
                }
                counts[l] += k - start;
                sum0[l] = c0;
                sum1[l] = c1;
                sum2[l] = c2;
                if (!feat)
                    continue;
                fsums[l] = f;
                if (wide) {
                    lo64[l] = lo;
                    hi64[l] = hi;
                } else {
                    lo32[l] = (float)lo;
                    hi32[l] = (float)hi;
                }
            }
        }
    return 0;
}

/* `np.gradient`'s derivative along one axis at index i of n >= 2, v the
 * voxel and stride its step: central inside, one-sided at either end. */
static double derivative(const void *feat, int wide, int64_t v, int64_t stride, int64_t i,
                         int64_t n, double h)
{
    if (i == 0)
        return (at(feat, wide, v + stride) - at(feat, wide, v)) / h;
    if (i == n - 1)
        return (at(feat, wide, v) - at(feat, wide, v - stride)) / h;
    return (at(feat, wide, v + stride) - at(feat, wide, v - stride)) / (2. * h);
}

/* For each of the n_grid points (i, j, k), the index in 3^3 raster order of
 * the voxel of its block with the smallest |grad f|^2 = (g0^2 + g1^2) + g2^2,
 * +inf outside the volume: the first minimum, or the first NaN, as
 * `np.argmin` takes it.  Every axis has at least 2 voxels. */
void slic_seeds(const void *feat, int wide, int64_t n0, int64_t n1, int64_t n2, double h0,
                double h1, double h2, int64_t n_grid, const int64_t *grid, int64_t *best)
{
    for (int64_t g = 0; g < n_grid; g++) {
        double best_m = INFINITY;
        int64_t pick = 0, b = 0;
        for (int64_t di = -1; di <= 1; di++)
            for (int64_t dj = -1; dj <= 1; dj++)
                for (int64_t dk = -1; dk <= 1; dk++, b++) {
                    int64_t i = grid[3 * g] + di, j = grid[3 * g + 1] + dj,
                            k = grid[3 * g + 2] + dk;
                    double m = INFINITY;
                    if (i >= 0 && i < n0 && j >= 0 && j < n1 && k >= 0 && k < n2) {
                        int64_t v = (i * n1 + j) * n2 + k;
                        double g0 = derivative(feat, wide, v, n1 * n2, i, n0, h0);
                        double g1 = derivative(feat, wide, v, n2, j, n1, h1);
                        double g2 = derivative(feat, wide, v, 1, k, n2, h2);
                        m = (g0 * g0 + g1 * g1) + g2 * g2;
                    }
                    if (isnan(best_m))
                        continue;
                    if (isnan(m) || b == 0 || m < best_m) {
                        best_m = m;
                        pick = b;
                    }
                }
        best[g] = pick;
    }
}

static int32_t root(int32_t *parent, int32_t v)
{
    while (parent[v] != v) {
        parent[v] = parent[parent[v]];
        v = parent[v];
    }
    return v;
}

/* 26-connected components of equal labels, numbered from 0 in the raster
 * order of their lowest voxel; returns their count.  A union-find links
 * each voxel to its 13 equally labeled neighbours before it in raster
 * order and keeps the lower root, which is each component's lowest voxel.
 * The parents are held in `comp` itself (the volume has < 2^31 voxels): a
 * parent is never after its child, so a second raster pass can give each
 * voxel its parent's number, or the next one to a root. */
int64_t slic_components(const int32_t *labels, int64_t n0, int64_t n1, int64_t n2,
                        int32_t *comp)
{
    for (int64_t i = 0, v = 0; i < n0; i++)
        for (int64_t j = 0; j < n1; j++)
            for (int64_t k = 0; k < n2; k++, v++) {
                /* A voxel labeled as the one before it joins that one's
                 * component, which already holds every equal neighbour the
                 * two share: only those at dk = +1 are left to link. */
                int same = k > 0 && labels[v - 1] == labels[v];
                int32_t r = comp[v] = same ? root(comp, (int32_t)v - 1) : (int32_t)v;
                for (int64_t di = -1; di <= 0; di++)
                    for (int64_t dj = -1; dj <= 1; dj++)
                        for (int64_t dk = same ? 1 : -1; dk <= 1; dk++) {
                            if (di == 0 && (dj > 0 || (dj == 0 && dk >= 0)))
                                continue;
                            int64_t a = i + di, b = j + dj, c = k + dk;
                            if (a < 0 || b < 0 || b >= n1 || c < 0 || c >= n2)
                                continue;
                            int64_t u = (a * n1 + b) * n2 + c;
                            if (labels[u] != labels[v])
                                continue;
                            int32_t s = root(comp, (int32_t)u);
                            if (s < r) {
                                comp[r] = s;
                                r = s;
                            } else if (r < s) {
                                comp[s] = r;
                            }
                        }
            }
    int32_t count = 0;
    for (int64_t v = 0; v < n0 * n1 * n2; v++)
        comp[v] = comp[v] == v ? count++ : comp[comp[v]];
    return count;
}

/* The connectivity step over `labels` (0..n_labels-1) and their
 * components `comp` (0..n_comp-1, numbered by lowest voxel), which it
 * overwrites with the final labels.  Each label keeps its largest
 * component, the lowest id on a tie.  The other components, the fragments,
 * are taken in id order: each takes the placed label 26-adjacent to any of
 * its voxels whose kept component is largest, the lower label on a tie,
 * and counts as placed for the later ones; one with no placed neighbour
 * waits for the next pass.  The kept labels, in order, become 0..N-1.
 * Scratch: `start` holds n_comp + 1 entries, `owner` n_comp, `kept`
 * n_labels and `vox` one per voxel.  Returns 0, -1 at a label or component
 * id out of range, or -2 when a pass places nothing. */
int64_t slic_merge_fragments(const int32_t *labels, int64_t n0, int64_t n1, int64_t n2,
                             int64_t n_labels, int32_t *comp, int64_t n_comp, int64_t *start,
                             int32_t *owner, int32_t *kept, int32_t *vox)
{
    int64_t n = n0 * n1 * n2;
    /* Each component's label, -1 for none, and its voxels in raster order
     * at vox[start[c]..start[c + 1]]: counted at start[c], summed to the
     * end of each range, and written backwards from there. */
    for (int64_t c = 0; c < n_comp; c++) {
        owner[c] = -1;
        start[c] = 0;
    }
    for (int64_t v = 0; v < n; v++) {
        if (labels[v] < 0 || labels[v] >= n_labels || comp[v] < 0 || comp[v] >= n_comp)
            return -1;
        owner[comp[v]] = labels[v];
        start[comp[v]]++;
    }
    for (int64_t c = 1; c < n_comp; c++)
        start[c] += start[c - 1];
    start[n_comp] = n;
    for (int64_t v = n - 1; v >= 0; v--)
        vox[--start[comp[v]]] = (int32_t)v;
#define SIZE(c) (start[(c) + 1] - start[c])
    for (int64_t l = 0; l < n_labels; l++)
        kept[l] = -1;
    for (int64_t c = 0; c < n_comp; c++) {
        int32_t l = owner[c];
        if (l >= 0 && (kept[l] < 0 || SIZE(c) > SIZE(kept[l])))
            kept[l] = (int32_t)c;
    }
    for (int64_t c = 0; c < n_comp; c++)
        if (owner[c] >= 0 && kept[owner[c]] != c)
            owner[c] = -1;
    for (int64_t waiting = 1; waiting;) {
        int64_t placed = 0;
        waiting = 0;
        for (int64_t c = 0; c < n_comp; c++) {
            if (owner[c] >= 0)
                continue;
            int32_t best = -1;
            int64_t best_size = 0;
            for (int64_t p = start[c]; p < start[c + 1]; p++) {
                int64_t i = vox[p] / (n1 * n2), j = vox[p] / n2 % n1, k = vox[p] % n2;
                for (int64_t a = i > 0 ? i - 1 : 0; a <= i + 1 && a < n0; a++)
                    for (int64_t b = j > 0 ? j - 1 : 0; b <= j + 1 && b < n1; b++)
                        for (int64_t d = k > 0 ? k - 1 : 0; d <= k + 1 && d < n2; d++) {
                            int32_t l = owner[comp[(a * n1 + b) * n2 + d]];
                            int64_t size = l < 0 ? 0 : SIZE(kept[l]);
                            if (size > best_size || (size == best_size && l < best)) {
                                best = l;
                                best_size = size;
                            }
                        }
            }
            owner[c] = best;
            placed += best >= 0;
            waiting += best < 0;
        }
        if (waiting && !placed)
            return -2;
    }
#undef SIZE
    int32_t count = 0;
    for (int64_t l = 0; l < n_labels; l++)
        kept[l] = kept[l] >= 0 ? count++ : -1;
    for (int64_t v = 0; v < n; v++)
        comp[v] = kept[owner[comp[v]]];
    return 0;
}

/* Index p of an axis of n voxels under scipy.ndimage's mode "reflect"
 * (d c b a | a b c d | d c b a), which repeats with period 2n: an axis
 * shorter than the filter radius is reflected more than once. */
static int64_t reflect(int64_t p, int64_t n)
{
    if (p >= 0 && p < n)
        return p;
    p %= 2 * n;
    p += p < 0 ? 2 * n : 0;
    return p < n ? p : 2 * n - 1 - p;
}

/* scipy's `correlate1d` at position i of an axis of n, for the m
 * contiguous values of each position, which are `step` apart in x, into
 * out: out = x[i] w[R], then out += (x[i - t] +- x[i + t]) w[R - t] for
 * t = R..1, with - for an antisymmetric (`odd`) filter, as scipy's
 * symmetric and antisymmetric paths add them.  w holds the 2R + 1 weights
 * as scipy is handed them.  The taps are added two per pass over the
 * values, each in its turn.  n = 0 stands for an x that already holds the
 * reflected positions past both ends.  It is kept out of line, so it is
 * compiled once per clone: inlined at its three calls, it made the
 * kernel's build take about twice as long. */
CLONES __attribute__((noinline))
static void correlate(const double *restrict x, int64_t step, int64_t n, int64_t i, int64_t m,
                      const double *w, int64_t radius, int odd, double *restrict out)
{
#define AT(p) (x + (n ? reflect(p, n) : (p)) * step)
    const double *c = AT(i);
    for (int64_t k = 0; k < m; k++)
        out[k] = c[k] * w[radius];
    int64_t t = radius;
    for (; t >= 2; t -= 2) {
        const double *lo = AT(i - t), *hi = AT(i + t), *lo2 = AT(i - t + 1), *hi2 = AT(i + t - 1);
        double wt = w[radius - t], wt2 = w[radius - t + 1];
        if (odd)
            for (int64_t k = 0; k < m; k++) {
                double o = out[k] + (lo[k] - hi[k]) * wt;
                out[k] = o + (lo2[k] - hi2[k]) * wt2;
            }
        else
            for (int64_t k = 0; k < m; k++) {
                double o = out[k] + (lo[k] + hi[k]) * wt;
                out[k] = o + (lo2[k] + hi2[k]) * wt2;
            }
    }
    if (t == 1) {
        const double *lo = AT(i - 1), *hi = AT(i + 1);
        if (odd)
            for (int64_t k = 0; k < m; k++)
                out[k] += (lo[k] - hi[k]) * w[radius - 1];
        else
            for (int64_t k = 0; k < m; k++)
                out[k] += (lo[k] + hi[k]) * w[radius - 1];
    }
#undef AT
}

/* Derivative orders per axis of Hxx, Hxy, Hxz, Hyy, Hyz, Hzz. */
static const int ORDERS[6][3] = {{2, 0, 0}, {1, 1, 0}, {1, 0, 1}, {0, 2, 0}, {0, 1, 1}, {0, 0, 2}};

/* The six scaled Hessian components of rows r0..r1 of an n0 x n1 x n2
 * volume `x`, with the bits of `ndimage.gaussian_filter1d(mode="reflect")`
 * along axis 0, then 1, then 2, times scale[c].  Row i of component c goes
 * to h + (c * h_rows + i - r0) * n1 * n2.  Axis a filters with the 2 r_a + 1
 * weights of order o at w_a + o * (2 r_a + 1); the odd order's are
 * antisymmetric and the others symmetric.  Each axis-0 order is filtered
 * once into `rows`, r1 - r0 rows, for the components that share it; `buf`
 * holds n2 + 2 r2 values. */
CLONES
void ridge_hessian(const double *x, int64_t n0, int64_t n1, int64_t n2, int64_t r0, int64_t r1,
                   const double *w0, int64_t radius0, const double *w1, int64_t radius1,
                   const double *w2, int64_t radius2, const double *scale, double *h,
                   int64_t h_rows, double *rows, double *buf)
{
    int64_t plane = n1 * n2;
    for (int order0 = 2; order0 >= 0; order0--) {
        for (int64_t i = r0; i < r1; i++)
            correlate(x, plane, n0, i, plane, w0 + order0 * (2 * radius0 + 1), radius0,
                      order0 & 1, rows + (i - r0) * plane);
        for (int c = 0; c < 6; c++) {
            if (ORDERS[c][0] != order0)
                continue;
            const double *w1c = w1 + ORDERS[c][1] * (2 * radius1 + 1);
            const double *w2c = w2 + ORDERS[c][2] * (2 * radius2 + 1);
            double *hc = h + c * h_rows * plane;
            /* Each axis-1 output line goes to `buf`, between its reflected
             * ends, and from there through the axis-2 pass to h: the loop
             * over the taps runs outside the one over the positions. */
            double *b = buf + radius2;
            for (int64_t i = 0; i < r1 - r0; i++)
                for (int64_t j = 0; j < n1; j++) {
                    double *out = hc + i * plane + j * n2;
                    correlate(rows + i * plane, n2, n1, j, n2, w1c, radius1, ORDERS[c][1] & 1, b);
                    for (int64_t t = 1; t <= radius2; t++) {
                        b[-t] = b[reflect(-t, n2)];
                        b[n2 - 1 + t] = b[reflect(n2 - 1 + t, n2)];
                    }
                    correlate(b, 1, 0, 0, n2, w2c, radius2, ORDERS[c][2] & 1, out);
                    for (int64_t k = 0; k < n2; k++)
                        out[k] *= scale[c];
                }
        }
    }
}
