//! Particle simulation: the section 4.1 object layout and `@Approximable`
//! classes working together.
//!
//! Run with `cargo run --release -p enerj-apps --example particles`.
//!
//! Each particle is a DRAM-resident record with a precise identity and
//! approximate kinematic state. The layout follows the paper's scheme —
//! precise fields first, approximate fields after, whole cache lines one
//! or the other — and the example prints which fields actually earned
//! approximate (low-refresh) storage. Velocity updates run on approximable
//! vectors, so the arithmetic rides the imprecise FPU too.

use enerj_apps::approximable::{endorse_vector, Vector3};
use enerj_core::context::ApproxMode;
use enerj_core::{endorse, Approx, ApproxRecord, RecordSchema, Runtime};
use enerj_hw::config::Level;

const PARTICLES: usize = 64;
const STEPS: usize = 50;
const DT: f32 = 0.01;

fn schema() -> RecordSchema {
    // @Approximable class Particle {
    //     int id;                       // precise: identity is critical
    //     @Approx float x, y, z;        // approximate kinematics
    //     @Approx float vx, vy, vz;
    //     @Approx float q0..q11;        // extra payload to spill past the
    // }                                 // first cache line
    let mut b = RecordSchema::builder("Particle").precise_field::<i64>("id");
    for f in [
        "x", "y", "z", "vx", "vy", "vz", "q0", "q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8",
        "q9", "q10", "q11",
    ] {
        b = b.approx_field::<f32>(f);
    }
    b.build()
}

fn main() {
    let rt = Runtime::new(Level::Medium, 2026);
    let (ids_ok, mean_r) = rt.run(|| {
        let schema = schema();

        // Report the layout outcome once.
        {
            let probe = ApproxRecord::new(&schema);
            println!("field storage after the section 4.1 layout:");
            for f in ["x", "y", "z", "vx", "vy", "vz", "q0", "q6", "q11"] {
                println!(
                    "  {f:>3}: {}",
                    if probe.field_storage_approx(f) {
                        "approximate line (low refresh)"
                    } else {
                        "shared precise line (reliable, no savings)"
                    }
                );
            }
        }

        let mut particles: Vec<ApproxRecord> =
            (0..PARTICLES).map(|_| ApproxRecord::new(&schema)).collect();
        for (i, p) in particles.iter_mut().enumerate() {
            p.set_precise("id", i as i64);
            let angle = i as f32 * 0.4;
            p.set_approx("x", Approx::new(angle.cos()));
            p.set_approx("y", Approx::new(angle.sin()));
            p.set_approx("z", Approx::new(0.0f32));
            p.set_approx("vx", Approx::new(-angle.sin() * 0.5));
            p.set_approx("vy", Approx::new(angle.cos() * 0.5));
            p.set_approx("vz", Approx::new(0.05f32));
        }

        // Integrate under a central spring force, all on approximable
        // vectors (@Approx Vector3f in the paper's phrasing).
        for _ in 0..STEPS {
            for p in &mut particles {
                let pos = Vector3::<ApproxMode> {
                    x: p.get_approx::<f32>("x").into(),
                    y: p.get_approx::<f32>("y").into(),
                    z: p.get_approx::<f32>("z").into(),
                };
                let vel = Vector3::<ApproxMode> {
                    x: p.get_approx::<f32>("vx").into(),
                    y: p.get_approx::<f32>("vy").into(),
                    z: p.get_approx::<f32>("vz").into(),
                };
                // a = -k x; semi-implicit Euler.
                let (ax, ay, az) = endorse_vector(pos);
                let (vx, vy, vz) = endorse_vector(vel);
                let (nvx, nvy, nvz) = (vx - ax * DT, vy - ay * DT, vz - az * DT);
                p.set_approx("vx", Approx::new(nvx));
                p.set_approx("vy", Approx::new(nvy));
                p.set_approx("vz", Approx::new(nvz));
                p.set_approx("x", Approx::new(ax + nvx * DT));
                p.set_approx("y", Approx::new(ay + nvy * DT));
                p.set_approx("z", Approx::new(az + nvz * DT));
            }
        }

        // Precise identities must have survived verbatim; approximate
        // positions are best-effort.
        let ids_ok =
            particles.iter_mut().enumerate().all(|(i, p)| p.get_precise::<i64>("id") == i as i64);
        let mut total_r = 0.0f64;
        for p in &mut particles {
            let x = endorse(p.get_approx::<f32>("x"));
            let y = endorse(p.get_approx::<f32>("y"));
            let r = f64::from(x * x + y * y).sqrt();
            if r.is_finite() {
                total_r += r.min(10.0);
            }
        }
        (ids_ok, total_r / PARTICLES as f64)
    });

    println!();
    println!("precise identities intact: {ids_ok}");
    println!("mean orbit radius after {STEPS} steps: {mean_r:.3} (ideal ~1.0 band)");
    let e = rt.energy();
    println!(
        "energy: {:.3} of precise ({:.1}% saved); {} faults injected",
        e.total,
        100.0 * e.savings(),
        rt.fault_counters().total_injections()
    );
    assert!(ids_ok, "precise state must never be corrupted");
}
