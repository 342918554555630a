# Fails when a header under src/ is included by no file in src/, bench/,
# examples/, tools/ or perfbench/src/ other than its own .cc. Such a header is
# a model that only its unit tests reach: wire it into a harness whose output
# changes without it, or delete it.
#
#   cmake -DSOURCE_DIR=<repo root> -P tests/src_reachability_test.cmake
if(NOT SOURCE_DIR)
  message(FATAL_ERROR "pass -DSOURCE_DIR=<repo root>")
endif()

file(GLOB_RECURSE headers RELATIVE "${SOURCE_DIR}" "${SOURCE_DIR}/src/*.h")
file(GLOB_RECURSE users RELATIVE "${SOURCE_DIR}"
     "${SOURCE_DIR}/src/*.h" "${SOURCE_DIR}/src/*.cc"
     "${SOURCE_DIR}/bench/*.h" "${SOURCE_DIR}/bench/*.cc"
     "${SOURCE_DIR}/examples/*.cpp" "${SOURCE_DIR}/tools/*.cc"
     "${SOURCE_DIR}/perfbench/src/*.h" "${SOURCE_DIR}/perfbench/src/*.cc")

set(reached "")
foreach(user IN LISTS users)
  string(REGEX REPLACE "\\.cc$" ".h" own "${user}")
  file(STRINGS "${SOURCE_DIR}/${user}" includes REGEX "^#include \"src/")
  foreach(line IN LISTS includes)
    string(REGEX REPLACE "^#include \"([^\"]+)\".*" "\\1" header "${line}")
    if(NOT header STREQUAL own)
      list(APPEND reached "${header}")
    endif()
  endforeach()
endforeach()

list(REMOVE_ITEM headers ${reached})
if(headers)
  list(JOIN headers "\n  " names)
  message(FATAL_ERROR "src/ headers that only tests reach:\n  ${names}")
endif()
