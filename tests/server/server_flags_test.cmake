# popan_server flag validation, run as
#   cmake -DSERVER=<path to popan_server> -P server_flags_test.cmake
#
# Every malformed or out-of-range value must be refused with exit status
# 2 before the server binds. A server that accepted one would serve until
# the per-case timeout, which fails the case. One well-formed command line
# must still come up and report its listening port.

foreach(case IN ITEMS
    "--port 70000" "--port -1" "--port abc" "--port 80x"
    "--shards -1" "--shards 0" "--capacity 4x" "--capacity 0"
    "--max-depth 1.5" "--side 0" "--side nan" "--side -2"
    "--split-cost 1e400" "--merge-cost -1" "--shards 4 --split-cost 10"
    "--merge-cost 200" "--port")
  separate_arguments(args UNIX_COMMAND "${case}")
  execute_process(COMMAND "${SERVER}" ${args}
    TIMEOUT 5 RESULT_VARIABLE rv OUTPUT_QUIET ERROR_QUIET)
  if(NOT rv STREQUAL "2")
    message(FATAL_ERROR "popan_server ${case}: expected exit 2, got '${rv}'")
  endif()
endforeach()

execute_process(COMMAND "${SERVER}" --port 0 --side 2.5 --capacity 8
    --max-depth 20 --shards 4 --split-cost 300 --merge-cost 30
  TIMEOUT 2 RESULT_VARIABLE rv OUTPUT_VARIABLE out ERROR_QUIET)
if(NOT out MATCHES "popan_server listening on 127.0.0.1:[0-9]+")
  message(FATAL_ERROR "popan_server refused well-formed flags: '${rv}' '${out}'")
endif()
