//! Regenerates **Table 1**: EnerJ's language extensions, their purposes,
//! and — new for this reproduction — where each construct lives in the two
//! renderings (the FEnerJ language and the embedded Rust API). Static
//! content (no trials).

use enerj_bench::cli::Options;
use enerj_bench::render_table;

fn main() {
    // Static content: the shared flags are checked, and none applies.
    Options::from_env(0, &[]);
    let rows = vec![
        vec![
            "@Approx, @Precise, @Top".to_owned(),
            "Type annotations: qualify any type (default @Precise)".to_owned(),
            "2.1".to_owned(),
            "`approx`/`precise`/`top` qualifiers".to_owned(),
            "Approx<T> vs plain T".to_owned(),
        ],
        vec![
            "endorse(e)".to_owned(),
            "Cast an approximate value to its precise equivalent".to_owned(),
            "2.2".to_owned(),
            "endorse(e)".to_owned(),
            "endorse / endorse_ctx".to_owned(),
        ],
        vec![
            "@Approximable".to_owned(),
            "Class may have precise and approximate instances".to_owned(),
            "2.5".to_owned(),
            "every class (new approx C())".to_owned(),
            "struct C<M: Mode>".to_owned(),
        ],
        vec![
            "@Context".to_owned(),
            "Precision follows the enclosing object's qualifier".to_owned(),
            "2.5.1".to_owned(),
            "`context` qualifier".to_owned(),
            "Ctx<T, M>".to_owned(),
        ],
        vec![
            "_APPROX methods".to_owned(),
            "Overload invoked when the receiver is approximate".to_owned(),
            "2.5.2".to_owned(),
            "`T m() approx { ... }`".to_owned(),
            "impl Trait for C<ApproxMode>".to_owned(),
        ],
        vec![
            "approximate arrays".to_owned(),
            "Approx elements, precise length and indices".to_owned(),
            "2.6".to_owned(),
            "`approx float[]`, e[i]".to_owned(),
            "ApproxVec<T>".to_owned(),
        ],
    ];
    println!("Table 1: EnerJ's language extensions and their renderings here");
    println!();
    println!(
        "{}",
        render_table(
            &["Construct", "Purpose", "Paper", "FEnerJ (enerj-lang)", "Rust API (enerj-core)"],
            &rows
        )
    );
}
