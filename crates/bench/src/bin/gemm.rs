//! GEMM kernel benchmark: the PR 9 blocked-kernel experiment.
//!
//! For every shape the harness times the blocked/transposed kernels of
//! `elf_nn::Matrix` ([`Matrix::matmul`], [`Matrix::matmul_transpose_self`],
//! [`Matrix::matmul_transpose_other`]) against their retained naive triple-
//! loop oracles, and **asserts bit-identity of every product** — the blocked
//! kernels reorder which output element is updated next, never the
//! within-element addition order, so on finite inputs the results must match
//! to the last bit.  The headline row is the classifier-shaped workload
//! (batch × 6 features through the paper's 50-unit hidden layer); square
//! shapes from 64×64 up show the autovectorization payoff the restructuring
//! exists for.
//!
//! `--quick` shrinks repetitions and drops the largest shapes for the CI
//! smoke run; `--json <path>` persists machine-readable results
//! (`target/gemm.json` in CI).

use std::process::ExitCode;
use std::time::Instant;

use elf_bench::{write_json_file, HarnessOptions, Json};
use elf_nn::Matrix;

/// One benchmarked shape: `m×k` times `k×n`.
struct Shape {
    name: &'static str,
    m: usize,
    k: usize,
    n: usize,
}

/// Measured outcome of one shape across the three kernel pairs.
struct ShapeReport {
    name: &'static str,
    m: usize,
    k: usize,
    n: usize,
    reps: usize,
    blocked_ms: f64,
    naive_ms: f64,
    transpose_blocked_ms: f64,
    transpose_naive_ms: f64,
    bit_identical: bool,
}

impl ShapeReport {
    fn speedup(&self) -> f64 {
        if self.blocked_ms > 0.0 {
            self.naive_ms / self.blocked_ms
        } else {
            0.0
        }
    }

    fn transpose_speedup(&self) -> f64 {
        if self.transpose_blocked_ms > 0.0 {
            self.transpose_naive_ms / self.transpose_blocked_ms
        } else {
            0.0
        }
    }
}

/// Deterministic pseudo-random matrix with mixed magnitudes (the same
/// recipe the kernel unit tests use: large, small and unit-scale entries
/// interleaved, so associativity bugs cannot hide behind uniform data).
fn pseudo_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let data = (0..rows * cols)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let unit = ((state >> 33) as f64 / (1u64 << 31) as f64) as f32 - 1.0;
            match state % 3 {
                0 => unit,
                1 => unit * 1e-4,
                _ => unit * 1e4,
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// `true` when both matrices agree on every element, to the bit.
fn bits_equal(a: &Matrix, b: &Matrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Times `reps` applications of `f`, returning (total ms, last product).
fn time_kernel(reps: usize, mut f: impl FnMut() -> Matrix) -> (f64, Matrix) {
    let mut product = f();
    let started = Instant::now();
    for _ in 0..reps {
        product = f();
    }
    (started.elapsed().as_secs_f64() * 1e3, product)
}

fn run_shape(shape: &Shape, reps: usize, seed: u64) -> ShapeReport {
    let a = pseudo_matrix(shape.m, shape.k, seed);
    let b = pseudo_matrix(shape.k, shape.n, seed ^ 0xB10C);
    // `matmul_transpose_other` computes A · Bᵗ, so hand it B pre-transposed.
    let bt = {
        let mut data = vec![0.0f32; shape.n * shape.k];
        for r in 0..shape.k {
            for c in 0..shape.n {
                data[c * shape.k + r] = b.get(r, c);
            }
        }
        Matrix::from_vec(shape.n, shape.k, data)
    };

    let (blocked_ms, blocked) = time_kernel(reps, || a.matmul(&b));
    let (naive_ms, naive) = time_kernel(reps, || a.matmul_naive(&b));
    let (transpose_blocked_ms, t_blocked) = time_kernel(reps, || a.matmul_transpose_other(&bt));
    let (transpose_naive_ms, t_naive) = time_kernel(reps, || a.matmul_transpose_other_naive(&bt));
    let self_blocked = a.matmul_transpose_self(&a);
    let self_naive = a.matmul_transpose_self_naive(&a);

    ShapeReport {
        name: shape.name,
        m: shape.m,
        k: shape.k,
        n: shape.n,
        reps,
        blocked_ms,
        naive_ms,
        transpose_blocked_ms,
        transpose_naive_ms,
        bit_identical: bits_equal(&blocked, &naive)
            && bits_equal(&t_blocked, &t_naive)
            && bits_equal(&self_blocked, &self_naive),
    }
}

fn main() -> ExitCode {
    let options = HarnessOptions::from_args();
    let quick = options.epochs <= 3;

    let mut shapes = vec![
        // The classifier workload: one circuit's cut-feature batch through the
        // paper's 6-50-50-1 classifier (k and n are the layer widths).
        Shape {
            name: "classifier",
            m: 256,
            k: 6,
            n: 50,
        },
        Shape {
            name: "hidden",
            m: 256,
            k: 50,
            n: 50,
        },
        // The acceptance shape: blocked must beat naive from 64×64 up.
        Shape {
            name: "square64",
            m: 64,
            k: 64,
            n: 64,
        },
        Shape {
            name: "square128",
            m: 128,
            k: 128,
            n: 128,
        },
        // Deliberately non-multiple-of-block dimensions.
        Shape {
            name: "ragged",
            m: 97,
            k: 131,
            n: 59,
        },
    ];
    if !quick {
        shapes.push(Shape {
            name: "square256",
            m: 256,
            k: 256,
            n: 256,
        });
    }
    let reps = if quick { 20 } else { 200 };

    let mut reports = Vec::new();
    let mut all_identical = true;
    for shape in &shapes {
        let report = run_shape(shape, reps, options.seed);
        all_identical &= report.bit_identical;
        println!(
            "{:<10} {:>3}x{:<3}x{:<3} | matmul {:>9.3} ms vs naive {:>9.3} ms ({:>5.2}x) \
             | A·Bᵗ {:>9.3} ms vs naive {:>9.3} ms ({:>5.2}x) | {}",
            report.name,
            report.m,
            report.k,
            report.n,
            report.blocked_ms,
            report.naive_ms,
            report.speedup(),
            report.transpose_blocked_ms,
            report.transpose_naive_ms,
            report.transpose_speedup(),
            if report.bit_identical {
                "BIT-IDENTICAL"
            } else {
                "DIVERGED"
            },
        );
        reports.push(report);
    }

    let at_least_64: Vec<&ShapeReport> =
        reports.iter().filter(|r| r.m >= 64 && r.k >= 64).collect();
    let faster = at_least_64.iter().filter(|r| r.speedup() > 1.0).count();
    println!(
        "-- {}/{} shapes bit-identical, blocked faster on {}/{} shapes at >=64x64 --",
        reports.iter().filter(|r| r.bit_identical).count(),
        reports.len(),
        faster,
        at_least_64.len(),
    );

    if let Some(path) = &options.json {
        write_json_file(path, &results_json(&options, &reports));
    }

    if all_identical {
        ExitCode::SUCCESS
    } else {
        eprintln!("gemm bench: blocked and naive kernels diverged bitwise");
        ExitCode::FAILURE
    }
}

fn results_json(options: &HarnessOptions, reports: &[ShapeReport]) -> Json {
    let rows: Vec<Json> = reports
        .iter()
        .map(|r| {
            Json::Obj(vec![
                Json::field("shape", Json::Str(r.name.to_string())),
                Json::field("m", Json::Int(r.m as i64)),
                Json::field("k", Json::Int(r.k as i64)),
                Json::field("n", Json::Int(r.n as i64)),
                Json::field("reps", Json::Int(r.reps as i64)),
                Json::field("matmul_blocked_ms", Json::Num(r.blocked_ms)),
                Json::field("matmul_naive_ms", Json::Num(r.naive_ms)),
                Json::field("matmul_speedup", Json::Num(r.speedup())),
                Json::field("transpose_blocked_ms", Json::Num(r.transpose_blocked_ms)),
                Json::field("transpose_naive_ms", Json::Num(r.transpose_naive_ms)),
                Json::field("transpose_speedup", Json::Num(r.transpose_speedup())),
                Json::field("bit_identical", Json::Bool(r.bit_identical)),
            ])
        })
        .collect();
    Json::Obj(vec![
        Json::field("bench", Json::Str("gemm".to_string())),
        Json::field("seed", Json::Int(options.seed as i64)),
        Json::field("threads", Json::Str(options.parallelism().to_string())),
        Json::field("shapes", Json::Int(reports.len() as i64)),
        Json::field(
            "all_bit_identical",
            Json::Bool(reports.iter().all(|r| r.bit_identical)),
        ),
        Json::field("rows", Json::Arr(rows)),
    ])
}
