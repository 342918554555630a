# Runs nvx_executord with malformed flags. Each must print the usage and exit
# 2 at once: not abort, wrap to a huge value, or start listening. Flags the
# daemon no longer has count as malformed.
#
#   cmake -DEXECUTORD=build/tools/nvx_executord -P tests/executord_flags_test.cmake
if(NOT EXECUTORD)
  message(FATAL_ERROR "pass -DEXECUTORD=<path to nvx_executord>")
endif()

foreach(flags IN ITEMS
        "--workers -1"
        "--port abc"
        "--plan-cache -1"
        "--plan-cache 64"
        "--plan-cache-bytes -1"
        "--plan-cache-bytes 18446744073709551616"
        "--workers 4x"
        "--workers 18446744073709551616"
        "--port 65536"
        "--workers"
        "--pool-capacity 8"
        "--pin")
  separate_arguments(argv UNIX_COMMAND "${flags}")
  execute_process(COMMAND "${EXECUTORD}" ${argv}
                  RESULT_VARIABLE code
                  OUTPUT_QUIET
                  ERROR_VARIABLE err
                  TIMEOUT 10)
  if(NOT code STREQUAL "2" OR NOT err MATCHES "usage:")
    message(FATAL_ERROR "nvx_executord ${flags}: exit '${code}', want 2 with usage\n${err}")
  endif()
endforeach()
