# Runs TOOL on INPUT and requires what a malformed input must give: exit
# status 2 and "parse error" on stderr, never an abort.
#   cmake -DTOOL=<binary> -DINPUT=<design.aux> -P expect_parse_error.cmake
execute_process(COMMAND "${TOOL}" "${INPUT}"
  RESULT_VARIABLE status
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "${TOOL}: expected exit status 2, got '${status}'\n${err}")
endif()
if(NOT err MATCHES "parse error")
  message(FATAL_ERROR "${TOOL}: no 'parse error' on stderr:\n${err}")
endif()
