//! Real compute kernels behind the proxy applications.
//!
//! The DES executes *virtual* compute durations, but the durations come
//! from somewhere: these are runnable implementations of the three kernel
//! families the paper's workflows use — a 7-point stencil (miniAMR), a
//! particle-in-cell step (GTC), and dense matrix multiplication (the
//! compute-heavy analytics kernel). Examples and the `kernels` bench run
//! them for real, and correctness tests pin down that the proxies
//! compute what they claim.

/// Dense `n × n` matrix multiplication, `c = a · b` (row-major).
/// The analytics kernel the paper couples with GTC and miniAMR (§IV-B).
pub fn matmul(n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    assert_eq!(a.len(), n * n);
    assert_eq!(b.len(), n * n);
    assert_eq!(c.len(), n * n);
    // i-k-j loop order: streams through b and c rows, cache-friendly.
    for ci in c.iter_mut() {
        *ci = 0.0;
    }
    for i in 0..n {
        for k in 0..n {
            let aik = a[i * n + k];
            let (brow, crow) = (&b[k * n..k * n + n], &mut c[i * n..i * n + n]);
            for (cj, bj) in crow.iter_mut().zip(brow.iter()) {
                *cj += aik * bj;
            }
        }
    }
}

/// One 7-point stencil sweep over an `nx × ny × nz` grid (the miniAMR
/// block kernel, §IV-B): every interior cell becomes the average of itself
/// and its six face neighbours. Boundary cells are copied unchanged.
pub fn stencil7(nx: usize, ny: usize, nz: usize, src: &[f64], dst: &mut [f64]) {
    assert_eq!(src.len(), nx * ny * nz);
    assert_eq!(dst.len(), nx * ny * nz);
    let idx = |x: usize, y: usize, z: usize| (x * ny + y) * nz + z;
    dst.copy_from_slice(src);
    for x in 1..nx.saturating_sub(1) {
        for y in 1..ny.saturating_sub(1) {
            for z in 1..nz.saturating_sub(1) {
                let sum = src[idx(x, y, z)]
                    + src[idx(x - 1, y, z)]
                    + src[idx(x + 1, y, z)]
                    + src[idx(x, y - 1, z)]
                    + src[idx(x, y + 1, z)]
                    + src[idx(x, y, z - 1)]
                    + src[idx(x, y, z + 1)];
                dst[idx(x, y, z)] = sum / 7.0;
            }
        }
    }
}

/// A particle for the PIC proxy kernel.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Particle {
    /// Position in a periodic unit domain.
    pub x: f64,
    /// Velocity.
    pub v: f64,
    /// Charge weight.
    pub w: f64,
}

/// One particle-in-cell step (the GTC proxy, §IV-B): deposit particle
/// charge onto a 1-D periodic grid with linear weighting, derive a toy
/// field, then push particles. Returns total deposited charge (conserved).
pub fn pic_step(particles: &mut [Particle], grid: &mut [f64], dt: f64) -> f64 {
    let n = grid.len();
    assert!(n >= 2, "grid needs at least two cells");
    for g in grid.iter_mut() {
        *g = 0.0;
    }
    // Charge deposition (linear / cloud-in-cell weighting).
    for p in particles.iter() {
        let xg = p.x.rem_euclid(1.0) * n as f64;
        let i0 = xg.floor() as usize % n;
        let i1 = (i0 + 1) % n;
        let frac = xg - xg.floor();
        grid[i0] += p.w * (1.0 - frac);
        grid[i1] += p.w * frac;
    }
    let total_charge: f64 = grid.iter().sum();
    // Toy field: negative gradient of charge density.
    let field: Vec<f64> = (0..n)
        .map(|i| {
            let left = grid[(i + n - 1) % n];
            let right = grid[(i + 1) % n];
            -(right - left) * 0.5
        })
        .collect();
    // Push.
    for p in particles.iter_mut() {
        let xg = p.x.rem_euclid(1.0) * n as f64;
        let i0 = xg.floor() as usize % n;
        let i1 = (i0 + 1) % n;
        let frac = xg - xg.floor();
        let e = field[i0] * (1.0 - frac) + field[i1] * frac;
        p.v += e * dt;
        p.x = (p.x + p.v * dt).rem_euclid(1.0);
    }
    total_charge
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let n = 8;
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            a[i * n + i] = 1.0;
        }
        let b: Vec<f64> = (0..n * n).map(|i| i as f64).collect();
        let mut c = vec![0.0; n * n];
        matmul(n, &a, &b, &mut c);
        assert_eq!(c, b);
    }

    #[test]
    fn matmul_known_product() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut c = [0.0; 4];
        matmul(2, &a, &b, &mut c);
        assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn stencil_preserves_constant_field() {
        let (nx, ny, nz) = (6, 5, 4);
        let src = vec![3.25; nx * ny * nz];
        let mut dst = vec![0.0; nx * ny * nz];
        stencil7(nx, ny, nz, &src, &mut dst);
        for v in dst {
            assert!((v - 3.25).abs() < 1e-12);
        }
    }

    #[test]
    fn stencil_smooths_spike() {
        let (nx, ny, nz) = (5, 5, 5);
        let mut src = vec![0.0; nx * ny * nz];
        let center = (2 * ny + 2) * nz + 2;
        src[center] = 7.0;
        let mut dst = vec![0.0; nx * ny * nz];
        stencil7(nx, ny, nz, &src, &mut dst);
        assert!((dst[center] - 1.0).abs() < 1e-12); // 7/7
        let neighbour = (ny + 2) * nz + 2;
        assert!((dst[neighbour] - 1.0).abs() < 1e-12); // spike/7
    }

    #[test]
    fn pic_conserves_charge() {
        let mut particles: Vec<Particle> = (0..1000)
            .map(|i| Particle {
                x: (i as f64 * 0.618_034) % 1.0,
                v: 0.0,
                w: 1.0,
            })
            .collect();
        let mut grid = vec![0.0; 64];
        let q = pic_step(&mut particles, &mut grid, 0.01);
        assert!((q - 1000.0).abs() < 1e-9);
        // Positions remain in the unit domain.
        for p in &particles {
            assert!((0.0..1.0).contains(&p.x));
        }
    }

    #[test]
    fn pic_uniform_plasma_is_stable() {
        // Perfectly uniform particles on grid points produce zero field:
        // velocities stay zero.
        let n = 32;
        let mut particles: Vec<Particle> = (0..n)
            .map(|i| Particle {
                x: i as f64 / n as f64,
                v: 0.0,
                w: 1.0,
            })
            .collect();
        let mut grid = vec![0.0; n];
        pic_step(&mut particles, &mut grid, 0.1);
        for p in &particles {
            assert!(p.v.abs() < 1e-12);
        }
    }
}
