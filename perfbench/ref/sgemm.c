/* Reference kernel for the native workload: the C that the sgemm
 * derivation in perfbench/native.py generated when the benchmark was
 * defined, with its symbols renamed to ref_*.  The harness times it right
 * after every run of the freshly generated kernel and scales that run by
 * the reference time, so contention from other tenants of the machine
 * cancels out.  It is part of the benchmark definition: regenerating it
 * changes what work_s measures. */
struct ref_win_2float {
    float * const data;
    const int_fast32_t strides[2];
};
void ref_ukernel_6x64_avx512(int_fast32_t K, struct ref_win_2float A, struct ref_win_2float B, struct ref_win_2float C);
void ref_sgemm(float* A, float* B, float* C);
void ref_ukernel_6x64_avx512(int_fast32_t K, struct ref_win_2float A, struct ref_win_2float B, struct ref_win_2float C) {
    // assert K >= 1
    float c_tile[(6) * (64)] __attribute__((aligned(64)));
    for (int_fast32_t i0 = 0; i0 < 6; i0++) {
        for (int_fast32_t jv = 0; jv < 4; jv++) {
            _mm512_store_ps(&c_tile[(i0) * (64) + (16 * jv) * (1)], _mm512_loadu_ps(&C.data[(i0) * (C.strides[0]) + (16 * jv) * (C.strides[1])]));
        }
    }
    for (int_fast32_t k = 0; k < K; k++) {
        for (int_fast32_t i = 0; i < 6; i++) {
            for (int_fast32_t jv_1 = 0; jv_1 < 4; jv_1++) {
                _mm512_store_ps(&c_tile[(i) * (64) + (16 * jv_1) * (1)], _mm512_fmadd_ps(_mm512_set1_ps(A.data[(i) * (A.strides[0]) + (k) * (A.strides[1])]), _mm512_loadu_ps(&B.data[(k) * (B.strides[0]) + (16 * jv_1) * (B.strides[1])]), _mm512_load_ps(&c_tile[(i) * (64) + (16 * jv_1) * (1)])));
            }
        }
    }
    for (int_fast32_t i0_1 = 0; i0_1 < 6; i0_1++) {
        for (int_fast32_t jv_2 = 0; jv_2 < 4; jv_2++) {
            _mm512_storeu_ps(&C.data[(i0_1) * (C.strides[0]) + (16 * jv_2) * (C.strides[1])], _mm512_load_ps(&c_tile[(i0_1) * (64) + (16 * jv_2) * (1)]));
        }
    }
}
void ref_sgemm(float* A, float* B, float* C) {
    for (int_fast32_t io = 0; io < 128; io++) {
        for (int_fast32_t jo = 0; jo < 12; jo++) {
            ref_ukernel_6x64_avx512(768, (struct ref_win_2float){ .data = &A[(6 * io) * (768)], .strides = { 768, 1 } }, (struct ref_win_2float){ .data = &B[(64 * jo) * (1)], .strides = { 768, 1 } }, (struct ref_win_2float){ .data = &C[(6 * io) * (768) + (64 * jo) * (1)], .strides = { 768, 1 } });
        }
    }
}
