//! Pixel rasters: mask rasterisation and Gaussian convolution.

use dfm_geom::{Coord, Rect, Region};
use std::ops::Range;

/// A rectangular grid of intensity samples over a layout window.
///
/// Pixel `(ix, iy)` covers the square
/// `[origin.x + ix·p, origin.x + (ix+1)·p) × [origin.y + iy·p, …)`
/// where `p` is [`pixel_nm`](Raster::pixel_nm). Rasterisation is
/// area-weighted, so features that partially cover a pixel contribute
/// fractionally — sub-pixel feature edges survive into the aerial image.
///
/// Each pixel's value is `covered_area / pixel_area` with the covered
/// area accumulated exactly (integer overlap products, all well below
/// 2⁵³) and divided once — so the value is a function of the covered
/// *point set* only, independent of how the region happens to be
/// decomposed into rectangles. Two rasters over the same pixel lattice
/// agree bit-for-bit wherever they see the same geometry, which is what
/// lets windowed simulations tile seamlessly.
#[derive(Clone, Debug)]
pub struct Raster {
    origin_x: Coord,
    origin_y: Coord,
    // Window extent: pixels are ceil-sized, so the last row/column may
    // cover layout area past these; emitted geometry must clamp to them.
    limit_x: Coord,
    limit_y: Coord,
    pixel: Coord,
    nx: usize,
    ny: usize,
    data: Vec<f64>,
}

impl Raster {
    /// Rasterises a region within `window` at `pixel_nm` resolution.
    ///
    /// # Panics
    ///
    /// Panics if `pixel_nm <= 0` or the window is empty.
    pub fn rasterize(region: &Region, window: Rect, pixel_nm: Coord) -> Self {
        assert!(pixel_nm > 0, "pixel size must be positive");
        assert!(!window.is_empty(), "raster window must be non-empty");
        let nx = (window.width() + pixel_nm - 1) / pixel_nm;
        let ny = (window.height() + pixel_nm - 1) / pixel_nm;
        let (nx, ny) = (nx as usize, ny as usize);
        let mut r = Raster {
            origin_x: window.x0,
            origin_y: window.y0,
            limit_x: window.x1,
            limit_y: window.y1,
            pixel: pixel_nm,
            nx,
            ny,
            data: vec![0.0; nx * ny],
        };
        let px_area = (pixel_nm * pixel_nm) as f64;
        let clipped = region.clipped(window);
        let rects = clipped.rects();
        // Each pixel accumulates the raw integer overlap products of
        // the rects in input order. The products sum exactly in f64
        // (every partial sum is an integer ≤ pixel_area · rect_count ≪
        // 2⁵³), and the single division per pixel happens after the rect
        // loop — so the final value is independent of rect order and
        // rect decomposition alike.
        for rect in rects {
            // Pixel index range the rect touches.
            let ix0 = ((rect.x0 - window.x0) / pixel_nm).max(0) as usize;
            let iy0 = ((rect.y0 - window.y0) / pixel_nm).max(0) as usize;
            let ix1 = (((rect.x1 - window.x0) + pixel_nm - 1) / pixel_nm).min(nx as i64) as usize;
            let iy1 = (((rect.y1 - window.y0) + pixel_nm - 1) / pixel_nm).min(ny as i64) as usize;
            for iy in iy0..iy1 {
                let py0 = window.y0 + iy as i64 * pixel_nm;
                let py1 = py0 + pixel_nm;
                let oy = (rect.y1.min(py1) - rect.y0.max(py0)).max(0);
                for ix in ix0..ix1 {
                    let qx0 = window.x0 + ix as i64 * pixel_nm;
                    let qx1 = qx0 + pixel_nm;
                    let ox = (rect.x1.min(qx1) - rect.x0.max(qx0)).max(0);
                    r.data[iy * nx + ix] += (ox * oy) as f64;
                }
            }
        }
        for v in &mut r.data {
            *v /= px_area;
        }
        r
    }

    /// Pixel size in nm.
    pub fn pixel_nm(&self) -> Coord {
        self.pixel
    }

    /// Grid width in pixels.
    pub fn width_px(&self) -> usize {
        self.nx
    }

    /// Grid height in pixels.
    pub fn height_px(&self) -> usize {
        self.ny
    }

    /// Sample at pixel indices, 0.0 outside the grid.
    pub fn get(&self, ix: isize, iy: isize) -> f64 {
        if ix < 0 || iy < 0 || ix as usize >= self.nx || iy as usize >= self.ny {
            0.0
        } else {
            self.data[iy as usize * self.nx + ix as usize]
        }
    }

    /// Sample at a layout coordinate, 0.0 outside the raster window.
    pub fn sample_at(&self, x: Coord, y: Coord) -> f64 {
        let ix = (x - self.origin_x).div_euclid(self.pixel);
        let iy = (y - self.origin_y).div_euclid(self.pixel);
        self.get(ix as isize, iy as isize)
    }

    /// Convolves in place with an isotropic Gaussian of standard
    /// deviation `sigma_nm`, using two separable 1-D passes.
    ///
    /// Summation order is part of the contract: every output pixel of
    /// each pass is `((0 + k₀·s₀) + k₁·s₁) + …` over the in-grid taps,
    /// added one at a time from tap 0 up, so the result is bit-identical
    /// to a per-pixel dot product in tap order. The passes are
    /// *tap-major*: each adds one tap across a contiguous run of a row,
    /// a bounds-free multiply-add the compiler vectorises. Two kinds of
    /// work are skipped because they cannot change a bit:
    ///
    /// - **`+0.0` sources.** A tap runs only over its source row's
    ///   nonzero spans (runs of samples whose bits are not `+0.0`;
    ///   `-0.0` counts as nonzero). A skipped tap would add
    ///   `k·(+0.0) = +0.0` (every `k ≥ 0`). The running sum starts at
    ///   `+0.0`, and under round-to-nearest a sum is `-0.0` only if both
    ///   addends are, so it is never `-0.0` and `acc + (+0.0) == acc`
    ///   bitwise for any finite input, negative samples (difference-of-
    ///   Gaussian rasters) included. An off-grid tap is skipped on the
    ///   same grounds, as the per-pixel loop does.
    /// - **Repeated rows.** A horizontal output row is a function of its
    ///   source row's bits alone, so a source row equal to the one
    ///   before it bit for bit shares that row's output and spans
    ///   instead of recomputing them. Manhattan rasters repeat most
    ///   rows.
    pub fn gaussian_blur(&mut self, sigma_nm: f64) {
        let Some(kernel) = self.gaussian_kernel(sigma_nm) else {
            return;
        };
        let radius = kernel.len() / 2;
        let (nx, ny) = (self.nx, self.ny);
        let kernel = &kernel[..];
        // Horizontal pass reads `self.data`, writes one `tmp` row per
        // distinct source row: source row `iy`'s output is `tmp` row
        // `out_row[iy]`, whose nonzero spans are
        // `spans[starts[d]..starts[d + 1]]` for `d = out_row[iy]`.
        let mut tmp: Vec<f64> = Vec::with_capacity(nx * ny);
        let mut out_row = Vec::with_capacity(ny);
        let mut spans: Vec<Range<usize>> = Vec::new();
        let mut starts = vec![0];
        let mut src_spans = Vec::new();
        for iy in 0..ny {
            let src = &self.data[iy * nx..(iy + 1) * nx];
            let repeat = iy > 0
                && src
                    .iter()
                    .zip(&self.data[(iy - 1) * nx..iy * nx])
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if repeat {
                out_row.push(out_row[iy - 1]);
                continue;
            }
            src_spans.clear();
            push_nonzero_spans(src, &mut src_spans);
            let d = starts.len() - 1;
            tmp.resize((d + 1) * nx, 0.0);
            let row = &mut tmp[d * nx..];
            // Tap `k` adds `kv · src[ix + k − radius]` to `row[ix]`.
            for (k, &kv) in kernel.iter().enumerate() {
                for s in &src_spans {
                    let lo = (s.start + radius).saturating_sub(k).min(nx);
                    let hi = (s.end + radius).saturating_sub(k).min(nx);
                    if lo >= hi {
                        continue;
                    }
                    let from = lo + k - radius;
                    for (out, v) in row[lo..hi].iter_mut().zip(&src[from..]) {
                        *out += kv * v;
                    }
                }
            }
            push_nonzero_spans(row, &mut spans);
            starts.push(spans.len());
            out_row.push(d);
        }
        // Vertical pass reads `tmp`, writes `self.data`.
        for (iy, row) in self.data.chunks_mut(nx).enumerate() {
            row.fill(0.0);
            for (k, &kv) in kernel.iter().enumerate() {
                let Some(sy) = (iy + k).checked_sub(radius).filter(|&sy| sy < ny) else {
                    continue;
                };
                let d = out_row[sy];
                let src = &tmp[d * nx..(d + 1) * nx];
                for s in &spans[starts[d]..starts[d + 1]] {
                    for (out, v) in row[s.clone()].iter_mut().zip(&src[s.clone()]) {
                        *out += kv * v;
                    }
                }
            }
        }
    }

    /// The normalised 1-D Gaussian kernel for `sigma_nm` at this
    /// raster's pixel size, `2·radius + 1` taps with
    /// `radius = ⌈3σ_px⌉`; `None` when the blur is the identity
    /// (`sigma_nm ≤ 0` or a zero radius).
    fn gaussian_kernel(&self, sigma_nm: f64) -> Option<Vec<f64>> {
        if sigma_nm <= 0.0 {
            return None;
        }
        let sigma_px = sigma_nm / self.pixel as f64;
        let radius = (3.0 * sigma_px).ceil() as isize;
        if radius == 0 {
            return None;
        }
        let mut kernel = Vec::with_capacity((2 * radius + 1) as usize);
        let mut sum = 0.0;
        for i in -radius..=radius {
            let v = (-(i as f64) * (i as f64) / (2.0 * sigma_px * sigma_px)).exp();
            kernel.push(v);
            sum += v;
        }
        for v in &mut kernel {
            *v /= sum;
        }
        Some(kernel)
    }

    /// Subtracts `weight` times `other`'s samples (grids must match).
    /// Used to assemble difference-of-Gaussians kernels.
    ///
    /// # Panics
    ///
    /// Panics if the grids differ in size.
    pub fn subtract_scaled(&mut self, other: &Raster, weight: f64) {
        assert_eq!(self.nx, other.nx, "raster widths must match");
        assert_eq!(self.ny, other.ny, "raster heights must match");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a -= weight * b;
        }
    }

    /// Divides every sample by `scale`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is zero.
    pub fn rescale(&mut self, scale: f64) {
        assert!(scale != 0.0, "scale must be nonzero");
        for a in &mut self.data {
            *a /= scale;
        }
    }

    /// Extracts the region of pixels with `value >= threshold`, in layout
    /// coordinates (each qualifying pixel contributes its square, clamped
    /// to the raster window — the ceil-sized last row/column must not
    /// emit area the window never covered).
    pub fn threshold_region(&self, threshold: f64) -> Region {
        let mut rects = Vec::new();
        for iy in 0..self.ny {
            // Merge horizontal runs.
            let mut run_start: Option<usize> = None;
            for ix in 0..=self.nx {
                let on = ix < self.nx && self.data[iy * self.nx + ix] >= threshold;
                match (on, run_start) {
                    (true, None) => run_start = Some(ix),
                    (false, Some(s)) => {
                        rects.push(Rect {
                            x0: self.origin_x + s as i64 * self.pixel,
                            y0: self.origin_y + iy as i64 * self.pixel,
                            x1: (self.origin_x + ix as i64 * self.pixel).min(self.limit_x),
                            y1: (self.origin_y + (iy as i64 + 1) * self.pixel).min(self.limit_y),
                        });
                        run_start = None;
                    }
                    _ => {}
                }
            }
        }
        Region::from_rects(rects)
    }
}

/// Appends the runs of `row` whose samples are not `+0.0` by bits
/// (`-0.0` included) to `spans`, in order.
fn push_nonzero_spans(row: &[f64], spans: &mut Vec<Range<usize>>) {
    let mut ix = 0;
    while ix < row.len() {
        if row[ix].to_bits() == 0 {
            ix += 1;
            continue;
        }
        let start = ix;
        while ix < row.len() && row[ix].to_bits() != 0 {
            ix += 1;
        }
        spans.push(start..ix);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test-only blurs: the oracles [`Raster::gaussian_blur`] is checked
    /// against.
    impl Raster {
        /// The per-pixel form of [`gaussian_blur`](Raster::gaussian_blur):
        /// each output pixel is one dot product over the in-grid taps, in
        /// tap order, with an off-grid tap skipped. The tap-major passes
        /// must equal it bit for bit.
        fn gaussian_blur_per_pixel(&mut self, sigma_nm: f64) {
            let Some(kernel) = self.gaussian_kernel(sigma_nm) else {
                return;
            };
            let radius = (kernel.len() / 2) as isize;
            let (nx, ny) = (self.nx, self.ny);
            let mut tmp = vec![0.0f64; nx * ny];
            for iy in 0..ny {
                for ix in 0..nx {
                    let mut acc = 0.0;
                    for (k, kv) in kernel.iter().enumerate() {
                        let sx = ix as isize + (k as isize - radius);
                        if sx < 0 || sx as usize >= nx {
                            continue;
                        }
                        acc += kv * self.data[iy * nx + sx as usize];
                    }
                    tmp[iy * nx + ix] = acc;
                }
            }
            for iy in 0..ny {
                for ix in 0..nx {
                    let mut acc = 0.0;
                    for (k, kv) in kernel.iter().enumerate() {
                        let sy = iy as isize + (k as isize - radius);
                        if sy < 0 || sy as usize >= ny {
                            continue;
                        }
                        acc += kv * tmp[sy as usize * nx + ix];
                    }
                    self.data[iy * nx + ix] = acc;
                }
            }
        }

        /// Reference implementation: direct (non-separable) 2-D Gaussian
        /// convolution. Mathematically identical to
        /// [`gaussian_blur`](Raster::gaussian_blur) but O(k²) per pixel
        /// instead of O(k); kept as the oracle the separable form is
        /// tested against.
        fn gaussian_blur_full2d(&mut self, sigma_nm: f64) {
            if sigma_nm <= 0.0 {
                return;
            }
            let sigma_px = sigma_nm / self.pixel as f64;
            let radius = (3.0 * sigma_px).ceil() as isize;
            if radius == 0 {
                return;
            }
            let mut kernel = Vec::with_capacity(((2 * radius + 1) * (2 * radius + 1)) as usize);
            let mut sum = 0.0;
            for j in -radius..=radius {
                for i in -radius..=radius {
                    let v = (-((i * i + j * j) as f64) / (2.0 * sigma_px * sigma_px)).exp();
                    kernel.push(v);
                    sum += v;
                }
            }
            for v in &mut kernel {
                *v /= sum;
            }
            let (nx, ny) = (self.nx, self.ny);
            let k = (2 * radius + 1) as usize;
            let mut out = vec![0.0f64; nx * ny];
            for y in 0..ny as isize {
                for x in 0..nx as isize {
                    let mut acc = 0.0;
                    for (idx, kv) in kernel.iter().enumerate() {
                        let dj = (idx / k) as isize - radius;
                        let di = (idx % k) as isize - radius;
                        acc += kv * self.get(x + di, y + dj);
                    }
                    out[y as usize * nx + x as usize] = acc;
                }
            }
            self.data = out;
        }
    }

    #[test]
    fn rasterise_exact_pixel_alignment() {
        let region = Region::from_rect(Rect::new(0, 0, 20, 10));
        let r = Raster::rasterize(&region, Rect::new(0, 0, 40, 20), 10);
        assert_eq!(r.width_px(), 4);
        assert_eq!(r.height_px(), 2);
        assert_eq!(r.get(0, 0), 1.0);
        assert_eq!(r.get(1, 0), 1.0);
        assert_eq!(r.get(2, 0), 0.0);
        assert_eq!(r.get(0, 1), 0.0);
    }

    #[test]
    fn rasterise_partial_pixels() {
        let region = Region::from_rect(Rect::new(5, 0, 15, 10));
        let r = Raster::rasterize(&region, Rect::new(0, 0, 20, 10), 10);
        assert!((r.get(0, 0) - 0.5).abs() < 1e-12);
        assert!((r.get(1, 0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn blur_conserves_mass_in_interior() {
        let region = Region::from_rect(Rect::new(200, 200, 300, 300));
        let mut r = Raster::rasterize(&region, Rect::new(0, 0, 500, 500), 10);
        let before: f64 = (0..r.height_px() as isize)
            .flat_map(|y| (0..r.width_px() as isize).map(move |x| (x, y)))
            .map(|(x, y)| r.get(x, y))
            .sum();
        r.gaussian_blur(30.0);
        let after: f64 = (0..r.height_px() as isize)
            .flat_map(|y| (0..r.width_px() as isize).map(move |x| (x, y)))
            .map(|(x, y)| r.get(x, y))
            .sum();
        assert!(
            (before - after).abs() / before < 1e-6,
            "mass not conserved: {before} vs {after}"
        );
    }

    #[test]
    fn blur_step_edge_is_half_at_edge() {
        // A half-plane's blurred value at the edge is 0.5.
        let region = Region::from_rect(Rect::new(0, 0, 500, 1000));
        let mut r = Raster::rasterize(&region, Rect::new(0, 0, 1000, 1000), 10);
        r.gaussian_blur(40.0);
        let at_edge = r.sample_at(500, 500);
        // Pixel centres offset by half a pixel; allow a loose band.
        assert!((0.35..0.65).contains(&at_edge), "edge value {at_edge}");
        assert!(r.sample_at(250, 500) > 0.95);
        assert!(r.sample_at(750, 500) < 0.05);
    }

    #[test]
    fn threshold_roundtrip_without_blur() {
        let region = Region::from_rect(Rect::new(0, 0, 100, 50));
        let r = Raster::rasterize(&region, Rect::new(0, 0, 200, 100), 10);
        let back = r.threshold_region(0.5);
        assert_eq!(back.area(), region.area());
        assert_eq!(back.bbox(), region.bbox());
    }

    #[test]
    fn threshold_clamps_to_non_pixel_multiple_window() {
        // 95×95 window at pixel 10: the grid is ceil-sized to 10×10
        // pixels, but emitted geometry must stop at the window edge.
        let window = Rect::new(0, 0, 95, 95);
        let region = Region::from_rect(window);
        let r = Raster::rasterize(&region, window, 10);
        assert_eq!(r.width_px(), 10);
        assert_eq!(r.height_px(), 10);
        // Interior pixels are fully covered, the last row/column squares
        // half covered (0.5), and the corner square quarter covered
        // (0.25) — threshold below 0.25 keeps them all.
        let back = r.threshold_region(0.2);
        assert_eq!(
            back.bbox(),
            window,
            "region must not extend past the window"
        );
        assert_eq!(back.area(), window.area());
    }

    #[test]
    fn rasterize_identical_across_thread_counts() {
        let region = Region::from_rects([
            Rect::new(12, 7, 263, 181),
            Rect::new(301, 66, 388, 329),
            Rect::new(0, 350, 500, 400),
        ]);
        let window = Rect::new(0, 0, 505, 405);
        let mk = || {
            let mut r = Raster::rasterize(&region, window, 10);
            r.gaussian_blur(35.0);
            r
        };
        let seq = dfm_par::with_threads(1, mk);
        let par = dfm_par::with_threads(8, mk);
        for y in 0..seq.height_px() as isize {
            for x in 0..seq.width_px() as isize {
                assert_eq!(
                    seq.get(x, y).to_bits(),
                    par.get(x, y).to_bits(),
                    "pixel ({x},{y}) differs across thread counts"
                );
            }
        }
    }

    /// The separable blur against its direct 2-D oracle on one input:
    /// every pixel within 1e-9.
    fn separable_matches_full2d(
        region: &Region,
        window: Rect,
        pixel_nm: Coord,
        sigma_nm: f64,
    ) -> dfm_check::PropResult {
        let mut a = Raster::rasterize(region, window, pixel_nm);
        let mut b = a.clone();
        a.gaussian_blur(sigma_nm);
        b.gaussian_blur_full2d(sigma_nm);
        for y in 0..a.height_px() as isize {
            for x in 0..a.width_px() as isize {
                let (va, vb) = (a.get(x, y), b.get(x, y));
                dfm_check::prop_assert!((va - vb).abs() < 1e-9, "({}, {}): {} vs {}", x, y, va, vb);
            }
        }
        Ok(())
    }

    #[test]
    fn full2d_matches_separable() {
        let fixed =
            Region::from_rects([Rect::new(100, 100, 260, 180), Rect::new(300, 60, 380, 320)]);
        separable_matches_full2d(&fixed, Rect::new(0, 0, 500, 400), 10, 35.0).unwrap();
        // Random masks (empty included), windows that cut through them,
        // pixel sizes that do not divide the window, and sigmas from
        // sub-pixel to several pixels.
        dfm_check::check(
            "separable_blur_matches_full2d",
            &dfm_check::Config::with_cases(32),
            &(
                dfm_check::vec((0i64..12, 0i64..12, 1i64..5, 1i64..5), 0..8),
                (-100i64..100, -100i64..100, 80i64..600, 80i64..600),
                6i64..21,
                1.0f64..60.0,
            ),
            |(specs, (wx, wy, w, h), pixel, sigma)| {
                let mask = Region::from_rects(specs.iter().map(|&(x, y, rw, rh)| {
                    Rect::new(x * 50, y * 50, x * 50 + rw * 30, y * 50 + rh * 30)
                }));
                separable_matches_full2d(&mask, Rect::new(*wx, *wy, wx + w, wy + h), *pixel, *sigma)
            },
        );
    }

    /// Every pixel of `a` and `b` equal by `f64::to_bits`.
    fn same_bits(a: &Raster, b: &Raster, what: &str) -> dfm_check::PropResult {
        dfm_check::prop_assert!(a.data.len() == b.data.len(), "{}: grid sizes differ", what);
        for (i, (va, vb)) in a.data.iter().zip(&b.data).enumerate() {
            dfm_check::prop_assert!(
                va.to_bits() == vb.to_bits(),
                "{}: pixel ({}, {}): {:e} vs {:e}",
                what,
                i % a.nx,
                i / a.nx,
                va,
                vb
            );
        }
        Ok(())
    }

    /// `gaussian_blur` under `DFM_THREADS` 1 and 8 (the passes are plain
    /// loops, so the setting must not move a bit) against the per-pixel oracle,
    /// on `raster` itself and on the difference-of-Gaussians raster the
    /// ringed optical model builds from it (whose negative samples are
    /// then blurred once more).
    fn tap_major_matches_per_pixel(
        raster: &Raster,
        sigma_nm: f64,
        ring_w: f64,
    ) -> dfm_check::PropResult {
        let blur = |r: &Raster, sigma: f64, threads: usize| {
            let mut out = r.clone();
            dfm_par::with_threads(threads, || out.gaussian_blur(sigma));
            out
        };
        let mut oracle = raster.clone();
        oracle.gaussian_blur_per_pixel(sigma_nm);
        for threads in [1, 8] {
            same_bits(&blur(raster, sigma_nm, threads), &oracle, "blur")?;
        }
        let ring_sigma = sigma_nm * 2.5;
        let mut ring_oracle = raster.clone();
        ring_oracle.gaussian_blur_per_pixel(ring_sigma);
        oracle.subtract_scaled(&ring_oracle, ring_w);
        oracle.rescale(1.0 - ring_w);
        let mut dog = blur(raster, sigma_nm, 8);
        dog.subtract_scaled(&blur(raster, ring_sigma, 1), ring_w);
        dog.rescale(1.0 - ring_w);
        same_bits(&dog, &oracle, "difference of Gaussians")?;
        oracle.gaussian_blur_per_pixel(sigma_nm);
        same_bits(
            &blur(&dog, sigma_nm, 8),
            &oracle,
            "blurred difference of Gaussians",
        )
    }

    #[test]
    fn tap_major_blur_is_bit_identical_to_per_pixel() {
        let one_px = Raster::rasterize(
            &Region::from_rect(Rect::new(0, 0, 5, 5)),
            Rect::new(0, 0, 7, 7),
            7,
        );
        assert_eq!((one_px.width_px(), one_px.height_px()), (1, 1));
        tap_major_matches_per_pixel(&one_px, 20.0, 0.3).unwrap();
        // Random masks (empty included) under windows from 1 × 1 px up,
        // some cut short of a whole last pixel; pixel sizes 2–21 and
        // sigmas 0.3–60 nm, so the radius runs from 1 to past the grid.
        dfm_check::check(
            "tap_major_blur_matches_per_pixel",
            &dfm_check::Config::with_cases(64),
            &(
                dfm_check::vec((0i64..12, 0i64..12, 1i64..5, 1i64..5), 0..8),
                (-100i64..100, -100i64..100, 1i64..48, 1i64..48, 0i64..21),
                2i64..22,
                0.3f64..60.0,
                0.1f64..0.4,
            ),
            |(specs, (wx, wy, cols, rows, trim), pixel, sigma, ring_w)| {
                let mask = Region::from_rects(specs.iter().map(|&(x, y, rw, rh)| {
                    Rect::new(x * 50, y * 50, x * 50 + rw * 30, y * 50 + rh * 30)
                }));
                let w = (cols * pixel - trim % pixel).max(1);
                let h = (rows * pixel - trim % pixel).max(1);
                let raster = Raster::rasterize(&mask, Rect::new(*wx, *wy, wx + w, wy + h), *pixel);
                tap_major_matches_per_pixel(&raster, *sigma, *ring_w)
            },
        );
    }

    /// A `nx × ny` raster at 10 nm pixels holding `data` row by row.
    fn from_samples(nx: usize, ny: usize, data: Vec<f64>) -> Raster {
        assert_eq!(data.len(), nx * ny);
        Raster {
            origin_x: 0,
            origin_y: 0,
            limit_x: 10 * nx as Coord,
            limit_y: 10 * ny as Coord,
            pixel: 10,
            nx,
            ny,
            data,
        }
    }

    /// `gaussian_blur` against the per-pixel oracle, by bits, at a sigma
    /// of one pixel (radius 3) and of four (radius 12).
    fn blur_matches_per_pixel(raster: &Raster, what: &str) {
        for sigma in [10.0, 40.0] {
            let mut fast = raster.clone();
            fast.gaussian_blur(sigma);
            let mut oracle = raster.clone();
            oracle.gaussian_blur_per_pixel(sigma);
            same_bits(&fast, &oracle, &format!("{what}, sigma {sigma}")).unwrap();
        }
    }

    #[test]
    fn blur_edge_cases_are_bit_identical_to_per_pixel() {
        let (nx, ny) = (9, 7);
        for (ix, iy) in [(0, 0), (nx - 1, 0), (0, ny - 1), (nx - 1, ny - 1)] {
            let mut data = vec![0.0; nx * ny];
            data[iy * nx + ix] = 0.75;
            blur_matches_per_pixel(&from_samples(nx, ny, data), "corner pixel");
        }
        blur_matches_per_pixel(&from_samples(nx, ny, vec![0.0; nx * ny]), "all zero");
        // `-0.0` lies in a span, next to `+0.0`, positive and negative
        // samples; one row is all `-0.0`.
        let signed: Vec<f64> = (0..nx * ny)
            .map(|i| match (i / nx, i % 4) {
                (2, _) => -0.0,
                (_, 0) => -0.0,
                (_, 1) => 0.0,
                (_, 2) => -0.25,
                _ => 0.5,
            })
            .collect();
        blur_matches_per_pixel(&from_samples(nx, ny, signed), "negative zeros");
        // Rows 0–3 equal, row 4 differs in one sample, rows 5–9 equal
        // rows 0–3 again; rows 10–11 are all zero.
        let row = [0.0, 0.0, 1.0, 1.0, 0.5, 0.0, 0.0, 0.25, 1.0];
        let mut runs = Vec::new();
        for iy in 0..12 {
            let mut r = if iy < 10 { row } else { [0.0; 9] };
            if iy == 4 {
                r[5] = 0.125;
            }
            runs.extend(r);
        }
        blur_matches_per_pixel(&from_samples(nx, 12, runs), "repeated rows");
        // Radius 12 against a 3 × 2 grid: every tap but the middle ones
        // falls off it.
        let tiny = from_samples(3, 2, vec![1.0, 0.0, 0.5, 0.0, 0.0, 1.0]);
        blur_matches_per_pixel(&tiny, "kernel wider than the grid");
    }

    #[test]
    fn sample_outside_is_zero() {
        let region = Region::from_rect(Rect::new(0, 0, 10, 10));
        let r = Raster::rasterize(&region, Rect::new(0, 0, 10, 10), 10);
        assert_eq!(r.sample_at(-5, 5), 0.0);
        assert_eq!(r.sample_at(5, 100), 0.0);
    }

    #[test]
    #[should_panic(expected = "pixel size")]
    fn zero_pixel_panics() {
        let _ = Raster::rasterize(&Region::new(), Rect::new(0, 0, 10, 10), 0);
    }
}
