# Runs TOOL with the arguments after "--" and requires exit status STATUS
# (default 0), a stdout and a stderr that match the regexes STDOUT and
# STDERR (when given), and every file of the comma-separated list WRITES
# in OUT_DIR (emptied first, so no earlier run's copy counts). Each name
# of the comma-separated list DIRS is made a directory in OUT_DIR before
# the run, so that it squats on the name of a file the tool would write.
#   cmake -DTOOL=<binary> [-DSTATUS=<n>] [-DSTDOUT=<regex>] [-DSTDERR=<regex>]
#         [-DOUT_DIR=<dir> [-DWRITES=<name>,<name>...] [-DDIRS=<name>,...]]
#         -P expect_run.cmake -- <tool arguments>
if(NOT DEFINED STATUS)
  set(STATUS 0)
endif()
set(args "")
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(DEFINED dashes)
    list(APPEND args "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(dashes ${i})
  endif()
endforeach()
if(OUT_DIR)
  file(REMOVE_RECURSE "${OUT_DIR}")
  string(REPLACE "," ";" dirs "${DIRS}")
  foreach(name IN LISTS dirs)
    file(MAKE_DIRECTORY "${OUT_DIR}/${name}")
  endforeach()
endif()
execute_process(COMMAND "${TOOL}" ${args}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT status STREQUAL "${STATUS}")
  message(FATAL_ERROR
    "${TOOL}: expected exit status ${STATUS}, got '${status}'\n${out}${err}")
endif()
if(DEFINED STDOUT AND NOT out MATCHES "${STDOUT}")
  message(FATAL_ERROR "${TOOL}: stdout does not match '${STDOUT}':\n${out}")
endif()
if(DEFINED STDERR AND NOT err MATCHES "${STDERR}")
  message(FATAL_ERROR "${TOOL}: stderr does not match '${STDERR}':\n${err}")
endif()
string(REPLACE "," ";" writes "${WRITES}")
foreach(name IN LISTS writes)
  if(NOT EXISTS "${OUT_DIR}/${name}")
    message(FATAL_ERROR
      "${TOOL}: did not write ${OUT_DIR}/${name}\n${out}${err}")
  endif()
endforeach()
