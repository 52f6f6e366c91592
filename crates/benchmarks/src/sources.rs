//! Mini-C sources of the six loop benchmarks (fpppp-kernel is generated, see
//! [`fpppp`](crate::fpppp)).
//!
//! Each source is a template with `@..@` placeholders substituted by the
//! constructors in [`lib`](crate), so tests can build scaled-down variants
//! while the paper-sized suite uses Table 2's dimensions.

/// Conway's Game of Life (Rawbench), `@N@×@N@` toroidal-interior grid for
/// `@GENS@` generations. The cell update keeps the original `if` control flow
/// inside the loop body, which is exactly why the paper reports low speedup
/// for life: unrolling cannot remove branches from the loop body.
pub const LIFE: &str = "
int i; int j; int g;
int cnt;
int A[@N@][@N@];
int B[@N@][@N@];
for (g = 0; g < @GENS@; g = g + 1) {
  for (i = 1; i < @N1@; i = i + 1) {
    for (j = 1; j < @N1@; j = j + 1) {
      cnt = A[i-1][j-1] + A[i-1][j] + A[i-1][j+1]
          + A[i][j-1] + A[i][j+1]
          + A[i+1][j-1] + A[i+1][j] + A[i+1][j+1];
      if (cnt == 3) {
        B[i][j] = 1;
      } else {
        if (cnt == 2) {
          B[i][j] = A[i][j];
        } else {
          B[i][j] = 0;
        }
      }
    }
  }
  for (i = 1; i < @N1@; i = i + 1) {
    for (j = 1; j < @N1@; j = j + 1) {
      A[i][j] = B[i][j];
    }
  }
}
";

/// Jacobi relaxation (Rawbench), `@N@×@N@`, `@ITERS@` sweeps.
pub const JACOBI: &str = "
int i; int j; int t;
float A[@N@][@N@];
float B[@N@][@N@];
for (t = 0; t < @ITERS@; t = t + 1) {
  for (i = 1; i < @N1@; i = i + 1) {
    for (j = 1; j < @N1@; j = j + 1) {
      B[i][j] = 0.25 * (A[i-1][j] + A[i+1][j] + A[i][j-1] + A[i][j+1]);
    }
  }
  for (i = 1; i < @N1@; i = i + 1) {
    for (j = 1; j < @N1@; j = j + 1) {
      A[i][j] = B[i][j];
    }
  }
}
";

/// Matrix multiplication (nasa7): `C[@M@][@P@] = A[@M@][@K@] × B[@K@][@P@]`.
pub const MXM: &str = "
int i; int j; int k;
float A[@M@][@K@];
float B[@K@][@P@];
float C[@M@][@P@];
float s;
for (i = 0; i < @M@; i = i + 1) {
  for (j = 0; j < @P@; j = j + 1) {
    s = 0.0;
    for (k = 0; k < @K@; k = k + 1) {
      s = s + A[i][k] * B[k][j];
    }
    C[i][j] = s;
  }
}
";

/// Cholesky decomposition/substitution (nasa7): `@MATS@` batched SPD systems
/// of size `@N@×@N@`, decomposed in place into `L`, then one forward
/// substitution per system into `Y`.
pub const CHOLESKY: &str = "
int m; int i; int j; int k;
float A[@MATS@][@N@][@N@];
float L[@MATS@][@N@][@N@];
float RHS[@MATS@][@N@];
float Y[@MATS@][@N@];
float s;
for (m = 0; m < @MATS@; m = m + 1) {
  for (j = 0; j < @N@; j = j + 1) {
    s = A[m][j][j];
    for (k = 0; k < j; k = k + 1) {
      s = s - L[m][j][k] * L[m][j][k];
    }
    L[m][j][j] = sqrt(s);
    for (i = j + 1; i < @N@; i = i + 1) {
      s = A[m][i][j];
      for (k = 0; k < j; k = k + 1) {
        s = s - L[m][i][k] * L[m][j][k];
      }
      L[m][i][j] = s / L[m][j][j];
    }
  }
  for (i = 0; i < @N@; i = i + 1) {
    s = RHS[m][i];
    for (k = 0; k < i; k = k + 1) {
      s = s - L[m][i][k] * Y[m][k];
    }
    Y[m][i] = s / L[m][i][i];
  }
}
";

/// Pentadiagonal-style elimination (nasa7 vpenta): `@N@` independent systems
/// along the first index, a serial second-order recurrence along the second —
/// the layout that defeats basic-block growth, as the paper reports.
pub const VPENTA: &str = "
int i; int j;
float X[@N@][@N@];
float D[@N@][@N@];
float E[@N@][@N@];
float F[@N@][@N@];
float A[@N@][@N@];
float B[@N@][@N@];
float m1; float m2;
for (i = 0; i < @N@; i = i + 1) {
  for (j = 2; j < @N@; j = j + 1) {
    m1 = A[i][j] / D[i][j-2];
    m2 = (B[i][j] - m1 * E[i][j-2]) / D[i][j-1];
    D[i][j] = D[i][j] - m1 * F[i][j-2] - m2 * E[i][j-1];
    E[i][j] = E[i][j] - m2 * F[i][j-1];
    X[i][j] = X[i][j] - m1 * X[i][j-2] - m2 * X[i][j-1];
  }
}
for (i = 0; i < @N@; i = i + 1) {
  X[i][@N1@] = X[i][@N1@] / D[i][@N1@];
  X[i][@N2@] = (X[i][@N2@] - E[i][@N2@] * X[i][@N1@]) / D[i][@N2@];
  for (j = 0; j < @N2@; j = j + 1) {
    X[i][@N3@-j] = (X[i][@N3@-j] - E[i][@N3@-j] * X[i][@N2@-j]
                  - F[i][@N3@-j] * X[i][@N1@-j]) / D[i][@N3@-j];
  }
}
";

/// Mesh generation with Thompson's solver (Spec92 tomcatv), reduced to
/// `@ITERS@` iterations on a `@N@×@N@` mesh: residual computation, maximum
/// error reduction (with `if` control flow), and relaxation update.
pub const TOMCATV: &str = "
int i; int j; int t;
float X[@N@][@N@];
float Y[@N@][@N@];
float RX[@N@][@N@];
float RY[@N@][@N@];
float xx; float yx; float xy; float yy;
float a; float b; float c;
float rel = 0.18;
float errx; float erry; float ax; float ay;
for (t = 0; t < @ITERS@; t = t + 1) {
  for (i = 1; i < @N1@; i = i + 1) {
    for (j = 1; j < @N1@; j = j + 1) {
      xx = 0.5 * (X[i+1][j] - X[i-1][j]);
      yx = 0.5 * (Y[i+1][j] - Y[i-1][j]);
      xy = 0.5 * (X[i][j+1] - X[i][j-1]);
      yy = 0.5 * (Y[i][j+1] - Y[i][j-1]);
      a = 0.25 * (xy*xy + yy*yy);
      b = 0.25 * (xx*xx + yx*yx);
      c = 0.125 * (xx*xy + yx*yy);
      RX[i][j] = a*(X[i+1][j] + X[i-1][j]) + b*(X[i][j+1] + X[i][j-1])
               - 0.5*c*(X[i+1][j+1] - X[i+1][j-1] - X[i-1][j+1] + X[i-1][j-1])
               - (a+b)*2.0*X[i][j];
      RY[i][j] = a*(Y[i+1][j] + Y[i-1][j]) + b*(Y[i][j+1] + Y[i][j-1])
               - 0.5*c*(Y[i+1][j+1] - Y[i+1][j-1] - Y[i-1][j+1] + Y[i-1][j-1])
               - (a+b)*2.0*Y[i][j];
    }
  }
  errx = 0.0;
  erry = 0.0;
  for (i = 1; i < @N1@; i = i + 1) {
    for (j = 1; j < @N1@; j = j + 1) {
      ax = abs(RX[i][j]);
      ay = abs(RY[i][j]);
      if (errx < ax) { errx = ax; }
      if (erry < ay) { erry = ay; }
      X[i][j] = X[i][j] + rel * RX[i][j];
      Y[i][j] = Y[i][j] + rel * RY[i][j];
    }
  }
}
";

/// Pointer chasing over a host-seeded permutation: `@STEPS@` hops of
/// `cur = P[cur]`, accumulating the visited payloads. Every subscript is
/// data-dependent, so each hop is a serial round trip on the dynamic
/// network — the adversarial workload for wormhole routing and the production
/// stepper's sleep gating.
pub const POINTER_CHASE: &str = "
int i; int cur; int sum;
int P[@N@];
int V[@N@];
int OUT[2];
cur = 0;
sum = 0;
for (i = 0; i < @STEPS@; i = i + 1) {
  sum = sum + V[cur];
  cur = P[cur];
}
OUT[0] = sum;
OUT[1] = cur;
";

/// Scatter/histogram: data-dependent read-modify-write `H[D[i] % @BINS@]`,
/// stressing in-flight dynamic loads and stores to colliding homes.
pub const SCATTER: &str = "
int i; int k;
int D[@N@];
int H[@BINS@];
for (i = 0; i < @N@; i = i + 1) {
  k = D[i] % @BINS@;
  H[k] = H[k] + 1;
}
";

/// Indirect gather: `S += A[IDX[i]]` with a host-seeded index array — many
/// independent dynamic loads in flight at once (the throughput counterpart to
/// the latency-bound pointer chase).
pub const GATHER: &str = "
int i; int s;
int IDX[@N@];
int A[@N@];
int OUT[1];
s = 0;
for (i = 0; i < @N@; i = i + 1) {
  s = s + A[IDX[i]];
}
OUT[0] = s;
";

/// Substitutes `@KEY@` placeholders.
pub fn instantiate(template: &str, substitutions: &[(&str, i64)]) -> String {
    let mut out = template.to_string();
    for (key, value) in substitutions {
        out = out.replace(&format!("@{key}@"), &value.to_string());
    }
    debug_assert!(!out.contains('@'), "unsubstituted placeholder in:\n{out}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instantiate_fills_all_placeholders() {
        let s = instantiate(JACOBI, &[("N", 8), ("N1", 7), ("ITERS", 1)]);
        assert!(!s.contains('@'));
        assert!(s.contains("float A[8][8];"));
        assert!(s.contains("i < 7"));
    }

    #[test]
    fn all_templates_parse_at_small_sizes() {
        let cases: Vec<(&str, Vec<(&str, i64)>)> = vec![
            (LIFE, vec![("N", 8), ("N1", 7), ("GENS", 1)]),
            (JACOBI, vec![("N", 8), ("N1", 7), ("ITERS", 1)]),
            (MXM, vec![("M", 4), ("K", 8), ("P", 2)]),
            (CHOLESKY, vec![("MATS", 1), ("N", 4)]),
            (VPENTA, vec![("N", 8), ("N1", 7), ("N2", 6), ("N3", 5)]),
            (TOMCATV, vec![("N", 8), ("N1", 7), ("ITERS", 1)]),
            (POINTER_CHASE, vec![("N", 8), ("STEPS", 16)]),
            (SCATTER, vec![("N", 16), ("BINS", 4)]),
            (GATHER, vec![("N", 16)]),
        ];
        for (template, subs) in cases {
            let src = instantiate(template, &subs);
            raw_lang::parser::parse("t", &src).expect(&src);
        }
    }
}
