/* Reference kernel for the native workload: the C that the conv
 * derivation in perfbench/native.py generated when the benchmark was
 * defined, with its symbols renamed to ref_*.  The harness times it right
 * after every run of the freshly generated kernel and scales that run by
 * the reference time, so contention from other tenants of the machine
 * cancels out.  It is part of the benchmark definition: regenerating it
 * changes what work_s measures. */
void ref_conv(float* inp, float* w, float* out);
void ref_conv(float* inp, float* w, float* out) {
    for (int_fast32_t b = 0; b < 5; b++) {
        for (int_fast32_t oy = 0; oy < 80; oy++) {
            for (int_fast32_t oxo = 0; oxo < 25; oxo++) {
                for (int_fast32_t oco = 0; oco < 4; oco++) {
                    float res[(4) * (32)] __attribute__((aligned(64)));
                    for (int_fast32_t xi = 0; xi < 4; xi++) {
                        for (int_fast32_t cv = 0; cv < 2; cv++) {
                            _mm512_store_ps(&res[(xi) * (32) + (16 * cv) * (1)], _mm512_setzero_ps());
                        }
                    }
                    for (int_fast32_t ky = 0; ky < 3; ky++) {
                        for (int_fast32_t kx = 0; kx < 3; kx++) {
                            for (int_fast32_t ic = 0; ic < 128; ic++) {
                                for (int_fast32_t xi_1 = 0; xi_1 < 4; xi_1++) {
                                    for (int_fast32_t cv_1 = 0; cv_1 < 2; cv_1++) {
                                        _mm512_store_ps(&res[(xi_1) * (32) + (16 * cv_1) * (1)], _mm512_fmadd_ps(_mm512_set1_ps(inp[(b) * (82 * 102 * 128) + (oy + ky) * (102 * 128) + (((4 * oxo) + kx) + xi_1) * (128) + (ic) * (1)]), _mm512_loadu_ps(&w[(ky) * (3 * 128 * 128) + (kx) * (128 * 128) + (ic) * (128) + ((32 * oco) + (16 * cv_1)) * (1)]), _mm512_load_ps(&res[(xi_1) * (32) + (16 * cv_1) * (1)])));
                                    }
                                }
                            }
                        }
                    }
                    for (int_fast32_t xi_2 = 0; xi_2 < 4; xi_2++) {
                        for (int_fast32_t cv_2 = 0; cv_2 < 2; cv_2++) {
                            _mm512_storeu_ps(&out[(b) * (80 * 100 * 128) + (oy) * (100 * 128) + ((4 * oxo) + xi_2) * (128) + ((32 * oco) + (16 * cv_2)) * (1)], _mm512_max_ps(_mm512_load_ps(&res[(xi_2) * (32) + (16 * cv_2) * (1)]), _mm512_setzero_ps()));
                        }
                    }
                }
            }
        }
    }
}
