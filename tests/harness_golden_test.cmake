# Runs each deterministic paper harness and compares its stdout with its
# golden in tests/golden/, byte for byte. The harnesses print virtual-time
# results of the paper's experiments (fig3-fig9, tables 2-4, §5.3, §5.7 and
# the lockstep ablation), so a difference is a change to the modeled
# results, which a change must declare by re-capturing the golden.
#
#   cmake -DBENCH_DIR=<build>/bench -DGOLDEN_DIR=<source>/tests/golden
#         -DOUT_DIR=<dir> -P tests/harness_golden_test.cmake
#
# Each harness's output is left in OUT_DIR for a diff against its golden.
set(harnesses
    fig3_nxe_spec fig4_nxe_multithread fig5_scalability fig6_check_dist_asan
    fig7_sanitizer_dist_ubsan fig8_unify_sanitizers fig9_load_levels table2_servers
    table3_ripe table4_cves sec53_attack_window sec57_single_core ablation_lockstep)

file(MAKE_DIRECTORY "${OUT_DIR}")
set(differ "")
foreach(harness IN LISTS harnesses)
  set(output "${OUT_DIR}/${harness}.txt")
  execute_process(COMMAND "${BENCH_DIR}/${harness}" OUTPUT_FILE "${output}"
                  RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(SEND_ERROR "${harness} exited with ${status}")
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${output}"
                          "${GOLDEN_DIR}/${harness}.txt"
                  RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    list(APPEND differ "${harness}")
  endif()
endforeach()

if(differ)
  message(FATAL_ERROR "harness output differs from its golden: ${differ}; "
                      "diff ${OUT_DIR}/<harness>.txt against ${GOLDEN_DIR}/<harness>.txt")
endif()
