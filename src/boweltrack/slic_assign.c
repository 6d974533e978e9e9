/* One SLIC assignment step (Achanta et al., TPAMI 2012) over the axis-0
 * rows row0..row1 of a C-ordered n0 x n1 x n2 feature volume.
 *
 * Clusters run in id order over their windows, clipped to the rows, and a
 * cluster takes a voxel only on a strictly smaller distance
 *     D = |f - f_c| + scale_c * sqrt((dx*dx + dy*dy) + dz*dz),
 * evaluated in double in this order, so the labels and distances are those
 * of `assign_per_cluster` in tests/oracles.py bit for bit.  It must be
 * compiled without FMA contraction or fast-math reassociation.  Voxels no
 * window covers keep label -1 and distance +inf.  The feature is float32,
 * or float64 when `wide` is nonzero. */

#include <math.h>
#include <stdint.h>

void slic_assign(const void *feat, int wide, int64_t n1, int64_t n2,
                 const double *pos0, const double *pos1, const double *pos2,
                 int64_t n_clusters, const double *centers, const double *cluster_feat,
                 const double *scale, const int64_t *lo, const int64_t *hi,
                 int64_t row0, int64_t row1, int32_t *label, double *dist)
{
    const float *f32 = feat;
    const double *f64 = feat;
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
                for (int64_t k = l[2]; k < h[2]; k++) {
                    double dz = pos2[k] - ctr[2];
                    double f = wide ? f64[row + k] : (double)f32[row + k];
                    double d = fabs(f - cluster_feat[c]) + scale[c] * sqrt(dxy + dz * dz);
                    if (d < dist[row + k]) {
                        dist[row + k] = d;
                        label[row + k] = (int32_t)c;
                    }
                }
            }
        }
    }
}
