//! Pointer-trajectory synthesis — the behavioural layer of the arms race.
//!
//! §2.3: bots "simulate human-like behavior to evade behavioral analysis
//! systems, including mimicking mouse movements". This module synthesises
//! actual point sequences and reduces them to the [`PointerStats`] the
//! detectors consume:
//!
//! * [`human_path`] — eased (accelerate/decelerate) curved strokes between
//!   a few waypoints, hand tremor, reading pauses. Real users and the
//!   good mimicry frameworks (Jing et al.'s generators, §2.3) both land
//!   here — which is exactly why DataDome cannot tell them apart and the
//!   mimicry evasion works.
//! * [`replay_path`] — what a naive script does: straight line, constant
//!   velocity, fixed time step. Trivially separable.
//!
//! The statistics are honest reductions of the sequences; nothing here
//! writes a "naturalness" value — `fp_types::behavior`'s scoring, which
//! DataDome reads, has to earn it.

use fp_types::{PointerStats, Splittable};

/// One sampled pointer event: position (CSS px) and timestamp (ms).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PointerSample {
    pub x: f32,
    pub y: f32,
    pub t_ms: u32,
}

/// Synthesise a human-like trajectory: 2–4 strokes between waypoints with
/// minimum-jerk-style easing, perpendicular tremor, and reading pauses.
pub fn human_path(rng: &mut Splittable) -> Vec<PointerSample> {
    let mut points = Vec::with_capacity(64);
    let mut t = 0u32;
    let mut x = 100.0 + 800.0 * rng.next_f64() as f32;
    let mut y = 80.0 + 500.0 * rng.next_f64() as f32;
    points.push(PointerSample { x, y, t_ms: t });

    let strokes = 2 + rng.next_below(3);
    for _ in 0..strokes {
        let tx = 60.0 + 1100.0 * rng.next_f64() as f32;
        let ty = 40.0 + 640.0 * rng.next_f64() as f32;
        let steps = 10 + rng.next_below(14) as usize;
        let stroke_ms = 280.0 + 600.0 * rng.next_f64();
        // Control point bows the stroke into an arc.
        let mx = (x + tx) / 2.0 + (rng.next_f64() as f32 - 0.5) * 220.0;
        let my = (y + ty) / 2.0 + (rng.next_f64() as f32 - 0.5) * 220.0;
        for i in 1..=steps {
            let u = i as f32 / steps as f32;
            // Smoothstep easing: slow-fast-slow, like a real hand.
            let e = u * u * (3.0 - 2.0 * u);
            let inv = 1.0 - e;
            let bez_x = inv * inv * x + 2.0 * inv * e * mx + e * e * tx;
            let bez_y = inv * inv * y + 2.0 * inv * e * my + e * e * ty;
            // Hand tremor.
            let jx = (rng.next_f64() as f32 - 0.5) * 3.0;
            let jy = (rng.next_f64() as f32 - 0.5) * 3.0;
            // Eased time increments give the speed profile its variance.
            let prev_e = {
                let u0 = (i as f32 - 1.0) / steps as f32;
                u0 * u0 * (3.0 - 2.0 * u0)
            };
            let dt = ((e - prev_e).max(0.015) * stroke_ms as f32) as u32 + 4;
            t += dt;
            points.push(PointerSample {
                x: bez_x + jx,
                y: bez_y + jy,
                t_ms: t,
            });
        }
        x = tx;
        y = ty;
        // A reading pause between strokes.
        if rng.chance(0.7) {
            t += 150 + rng.next_below(1200) as u32;
        }
    }
    points
}

/// Synthesise a naive replay: straight line, constant speed, fixed step.
pub fn replay_path(rng: &mut Splittable) -> Vec<PointerSample> {
    let steps = 12 + rng.next_below(40) as usize;
    let x0 = 50.0 + 200.0 * rng.next_f64() as f32;
    let y0 = 50.0 + 200.0 * rng.next_f64() as f32;
    let dx = 4.0 + 8.0 * rng.next_f64() as f32;
    let dy = 2.0 + 6.0 * rng.next_f64() as f32;
    let dt = 8 + rng.next_below(8) as u32;
    (0..steps)
        .map(|i| PointerSample {
            x: x0 + dx * i as f32,
            y: y0 + dy * i as f32,
            t_ms: dt * i as u32,
        })
        .collect()
}

/// Reduce a trajectory to the statistics the detectors consume.
pub fn stats_of(path: &[PointerSample]) -> PointerStats {
    if path.len() < 3 {
        return PointerStats {
            samples: path.len() as u16,
            ..PointerStats::default()
        };
    }
    let duration_ms = path.last().unwrap().t_ms.saturating_sub(path[0].t_ms);

    // Per-segment speeds (px/ms) excluding pauses.
    let mut speeds = Vec::with_capacity(path.len() - 1);
    let mut pause_ms = 0u32;
    for w in path.windows(2) {
        let dt = w[1].t_ms.saturating_sub(w[0].t_ms).max(1);
        if dt > 100 {
            pause_ms += dt;
            continue;
        }
        let dist = ((w[1].x - w[0].x).powi(2) + (w[1].y - w[0].y).powi(2)).sqrt();
        speeds.push(dist / dt as f32);
    }
    let speed_cv = coefficient_of_variation(&speeds);

    // Mean absolute turn angle between consecutive segments.
    let mut turns = Vec::with_capacity(path.len().saturating_sub(2));
    for w in path.windows(3) {
        let a = ((w[1].x - w[0].x), (w[1].y - w[0].y));
        let b = ((w[2].x - w[1].x), (w[2].y - w[1].y));
        let (la, lb) = (
            (a.0 * a.0 + a.1 * a.1).sqrt(),
            (b.0 * b.0 + b.1 * b.1).sqrt(),
        );
        if la < 1e-3 || lb < 1e-3 {
            continue;
        }
        let cross = a.0 * b.1 - a.1 * b.0;
        let dot = a.0 * b.0 + a.1 * b.1;
        turns.push(cross.atan2(dot).abs());
    }
    let curvature = if turns.is_empty() {
        0.0
    } else {
        turns.iter().sum::<f32>() / turns.len() as f32
    };

    PointerStats {
        samples: path.len() as u16,
        duration_ms,
        speed_cv,
        curvature,
        pause_fraction: if duration_ms == 0 {
            0.0
        } else {
            pause_ms as f32 / duration_ms as f32
        },
    }
}

fn coefficient_of_variation(xs: &[f32]) -> f32 {
    if xs.len() < 2 {
        return 0.0;
    }
    let mean = xs.iter().sum::<f32>() / xs.len() as f32;
    if mean < 1e-6 {
        return 0.0;
    }
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / xs.len() as f32;
    var.sqrt() / mean
}

/// A human-like trace, ready for a request.
pub fn human_trace(rng: &mut Splittable) -> fp_types::BehaviorTrace {
    let path = human_path(rng);
    fp_types::BehaviorTrace {
        mouse_events: path.len() as u16,
        touch_events: 0,
        pointer: Some(stats_of(&path)),
        first_input_delay_ms: 200 + rng.next_below(4000) as u32,
    }
}

/// A naive-replay trace.
pub fn replay_trace(rng: &mut Splittable) -> fp_types::BehaviorTrace {
    let path = replay_path(rng);
    fp_types::BehaviorTrace {
        mouse_events: path.len() as u16,
        touch_events: 0,
        pointer: Some(stats_of(&path)),
        first_input_delay_ms: 1 + rng.next_below(30) as u32,
    }
}

/// A touch-tap trace (no pointer trajectory).
pub fn touch_trace(taps: u16, rng: &mut Splittable) -> fp_types::BehaviorTrace {
    fp_types::BehaviorTrace {
        mouse_events: 0,
        touch_events: taps,
        pointer: None,
        first_input_delay_ms: 200 + rng.next_below(3000) as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_types::behavior::naturalness;

    #[test]
    fn human_paths_always_score_natural() {
        let mut rng = Splittable::new(0x9A7);
        for i in 0..500 {
            let stats = stats_of(&human_path(&mut rng));
            let score = naturalness(&stats);
            assert!(
                score >= 0.6,
                "draw {i}: human path scored {score}: {stats:?}"
            );
        }
    }

    #[test]
    fn replays_always_score_synthetic() {
        let mut rng = Splittable::new(0xB07);
        for i in 0..500 {
            let stats = stats_of(&replay_path(&mut rng));
            let score = naturalness(&stats);
            assert!(score < 0.3, "draw {i}: replay scored {score}: {stats:?}");
        }
    }

    #[test]
    fn human_stats_have_human_shape() {
        let mut rng = Splittable::new(3);
        let stats = stats_of(&human_path(&mut rng));
        assert!(stats.speed_cv > 0.2, "{stats:?}");
        assert!(stats.curvature > 0.02, "{stats:?}");
        assert!(stats.samples >= 20, "{stats:?}");
    }

    #[test]
    fn replay_stats_are_flat() {
        let mut rng = Splittable::new(4);
        let stats = stats_of(&replay_path(&mut rng));
        assert!(stats.speed_cv < 0.05, "{stats:?}");
        assert!(stats.curvature < 0.01, "{stats:?}");
        assert_eq!(stats.pause_fraction, 0.0);
    }

    #[test]
    fn stats_of_degenerate_paths() {
        assert_eq!(stats_of(&[]).samples, 0);
        let one = [PointerSample {
            x: 1.0,
            y: 1.0,
            t_ms: 0,
        }];
        assert_eq!(stats_of(&one).samples, 1);
        // Stationary path: zero speeds, no turns, no panic.
        let still: Vec<PointerSample> = (0..10)
            .map(|i| PointerSample {
                x: 5.0,
                y: 5.0,
                t_ms: i * 10,
            })
            .collect();
        let s = stats_of(&still);
        assert_eq!(s.curvature, 0.0);
        assert_eq!(s.speed_cv, 0.0);
    }

    #[test]
    fn timestamps_are_monotone() {
        let mut rng = Splittable::new(5);
        for path in [human_path(&mut rng), replay_path(&mut rng)] {
            assert!(path.windows(2).all(|w| w[1].t_ms >= w[0].t_ms));
        }
    }
}
