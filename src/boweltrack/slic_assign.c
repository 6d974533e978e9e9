/* SLIC's per-voxel work (Achanta et al., TPAMI 2012) over a C-ordered
 * n0 x n1 x n2 volume: the seed search, the assignment step, the fallback
 * for voxels no window covers, the update sums, the same-label components
 * and the scan for the components around each fragment.  Every function
 * gives the bits of the numpy code it replaced (tests/oracles.py): it
 * evaluates each expression in double, in the order written here.  It must
 * be compiled without FMA contraction or fast-math reassociation.  The
 * feature is float32, or float64 when `wide` is nonzero.  The callers in
 * supervoxel.py check every length and type. */

#include <math.h>
#include <stdint.h>

/* The assignment runs as an AVX2 clone where the CPU has AVX2, else as the
 * default one: same bits, since no FMA is allowed and sqrt rounds
 * correctly in both.  Only x86-64 glibc resolves clones at load time. */
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

/* One assignment step over the axis-0 rows row0..row1: clusters in id order
 * over their windows lo..hi (per axis, end exclusive), clipped to the rows.
 * Voxels no window covers keep label -1 and distance +inf. */
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
}

/* Each voxel still labeled -1 takes, of all clusters, the lowest id with
 * the smallest D = |f - f_c| + s_c * sqrt((dx*dx + dy*dy) + dz*dz), or the
 * first whose D is NaN: `np.argmin` of `np.linalg.norm`'s distances. */
void slic_nearest(const void *feat, int wide, int64_t n0, int64_t n1, int64_t n2,
                  const double *pos0, const double *pos1, const double *pos2,
                  int64_t n_clusters, const double *centers, const double *cluster_feat,
                  const double *scale, int32_t *label)
{
    for (int64_t i = 0, v = 0; i < n0; i++)
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

/* The keys own * n_comp + other of every component `other` 26-adjacent to a
 * voxel of a fragment component `own`, in no order and with repeats: a key
 * is skipped while `seen[other]` (n_comp slots) says it was the last one
 * written for `other`.  Writes the first `capacity` keys and returns how
 * many there are, or -1 at a component outside 0..n_comp-1. */
int64_t slic_fragment_pairs(const int32_t *comp, int64_t n0, int64_t n1, int64_t n2,
                            const uint8_t *fragment, int64_t n_comp, int32_t *seen,
                            int64_t capacity, int64_t *keys)
{
    int64_t count = 0;
    for (int64_t c = 0; c < n_comp; c++)
        seen[c] = -1;
    for (int64_t i = 0, v = 0; i < n0; i++)
        for (int64_t j = 0; j < n1; j++)
            for (int64_t k = 0; k < n2; k++, v++) {
                int32_t own = comp[v];
                if (own < 0 || own >= n_comp)
                    return -1;
                if (!fragment[own])
                    continue;
                for (int64_t a = i - 1; a <= i + 1; a++)
                    for (int64_t b = j - 1; b <= j + 1; b++)
                        for (int64_t c = k - 1; c <= k + 1; c++) {
                            if (a < 0 || a >= n0 || b < 0 || b >= n1 || c < 0 || c >= n2)
                                continue;
                            int32_t other = comp[(a * n1 + b) * n2 + c];
                            if (other < 0 || other >= n_comp)
                                return -1;
                            if (other == own || seen[other] == own)
                                continue;
                            seen[other] = own;
                            if (count < capacity)
                                keys[count] = (int64_t)own * n_comp + other;
                            count++;
                        }
            }
    return count;
}
